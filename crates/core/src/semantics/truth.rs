//! Truth conditions (Appendix C): evaluating formulas at a point `(r, t)`.

use crate::syntax::{Formula, GroupId, KeyId, Message, Subject, Time, TimeRef};

use super::run::Run;

/// An interpreted system `(R, π)` restricted to one run, with an evaluator
/// for the Appendix C truth conditions.
#[derive(Debug, Clone)]
pub struct Model {
    run: Run,
    /// Truth assignment for primitive propositions (π). Propositions not
    /// listed are false.
    true_props: Vec<String>,
}

impl Model {
    /// Wraps a run as a model.
    #[must_use]
    pub fn new(run: Run) -> Self {
        Model {
            run,
            true_props: Vec::new(),
        }
    }

    /// Marks a primitive proposition as true (the interpretation π).
    #[cfg(test)]
    pub(crate) fn assert_prop(&mut self, p: impl Into<String>) -> &mut Self {
        self.true_props.push(p.into());
        self
    }

    /// The underlying run.
    #[must_use]
    pub fn run(&self) -> &Run {
        &self.run
    }

    /// Evaluates `(r, t) ⊨ φ` at *global* time `t`.
    #[must_use]
    pub fn eval(&self, t: Time, f: &Formula) -> bool {
        match f {
            Formula::Prop(p) => self.true_props.contains(p),
            Formula::Not(inner) => !self.eval(t, inner),
            Formula::And(a, b) => self.eval(t, a) && self.eval(t, b),
            Formula::Implies(a, b) => !self.eval(t, a) || self.eval(t, b),
            Formula::TimeLe(a, b) => a <= b,
            Formula::Received(s, when, msg) => {
                self.eval_time_ref(when, |tt| self.received(s, tt, t, msg))
            }
            Formula::Says(s, when, msg) => self.eval_time_ref(when, |tt| self.says(s, tt, t, msg)),
            Formula::Said(s, when, msg) => self.eval_time_ref(when, |tt| self.said(s, tt, t, msg)),
            Formula::Has(s, when, key) => self.eval_time_ref(when, |tt| self.has(s, tt, t, key)),
            Formula::KeySpeaksFor {
                key,
                when,
                relative_to,
                subject,
            } => self.eval_time_ref(when, |tt| {
                self.key_speaks_for(key, tt, t, relative_to.as_ref(), subject)
            }),
            Formula::MemberOf {
                subject,
                when,
                group,
                ..
            } => self.eval_time_ref(when, |tt| self.member_of(subject, tt, t, group)),
            Formula::GroupSays(g, when, msg) => {
                let gs = Subject::principal(g.as_str());
                self.eval_time_ref(when, |tt| self.says(&gs, tt, t, msg))
            }
            Formula::Fresh {
                observer,
                when,
                msg,
            } => self.eval_time_ref(when, |tt| self.fresh(observer, tt, t, msg)),
            Formula::Controls(s, when, inner) => {
                self.eval_time_ref(when, |tt| self.controls(s, tt, t, inner))
            }
            Formula::Believes(s, when, inner) => {
                // Single-run strengthening: believes ≈ presence at the
                // believer (see module docs).
                self.eval_time_ref(when, |tt| self.holds_at(s, tt, inner))
            }
            Formula::At(inner, place, when) => {
                self.eval_time_ref(when, |tt| self.holds_at(place, tt, inner))
            }
        }
    }

    /// Universal/existential expansion of a [`TimeRef`], where the times in
    /// formulas are *local* to the subject — evaluated against the global
    /// clock via each check's own locality handling.
    fn eval_time_ref(&self, when: &TimeRef, mut check: impl FnMut(Time) -> bool) -> bool {
        match when {
            TimeRef::At(t) => check(*t),
            TimeRef::Closed(lo, hi) => (lo.0..=hi.0).all(|x| check(Time(x))),
            TimeRef::Within(lo, hi) => (lo.0..=hi.0).any(|x| check(Time(x))),
        }
    }

    /// `φ at_S t`: evaluate at the global time corresponding to `S`'s local
    /// time `t` (Appendix C "At").
    fn holds_at(&self, place: &Subject, local: Time, f: &Formula) -> bool {
        let Some(p) = self.run.party(place) else {
            return false;
        };
        self.eval(p.global_time(local), f)
    }

    /// `S received_{t'} X` (local `t'`).
    fn received(&self, s: &Subject, local: Time, at: Time, msg: &Message) -> bool {
        let Some(p) = self.run.party(s) else {
            return false;
        };
        if local > p.local_time(at) {
            return false; // Appendix C: only the past of (r, t) can be true
        }
        let keys = p.keyset_at(local);
        p.received_by(local)
            .iter()
            .any(|m| m.submessages(&keys).contains(&msg))
    }

    /// `S says_{t'} X`: a send event at exactly `t'` containing `X` as a
    /// submessage.
    fn says(&self, s: &Subject, local: Time, at: Time, msg: &Message) -> bool {
        let Some(p) = self.run.party(s) else {
            return false;
        };
        if local > p.local_time(at) {
            return false;
        }
        let keys = p.keyset_at(local);
        p.sends_at(local)
            .iter()
            .any(|m| m.submessages(&keys).contains(&msg))
    }

    /// `S said_{t'} X`: says at some `t'' <= t'`.
    fn said(&self, s: &Subject, local: Time, at: Time, msg: &Message) -> bool {
        let Some(p) = self.run.party(s) else {
            return false;
        };
        if local > p.local_time(at) {
            return false;
        }
        let keys = p.keyset_at(local);
        p.all_sends()
            .iter()
            .any(|(tt, m)| *tt <= local && m.submessages(&keys).contains(&msg))
    }

    /// `S has_{t'} K`.
    fn has(&self, s: &Subject, local: Time, at: Time, key: &KeyId) -> bool {
        self.run
            .party(s)
            .is_some_and(|p| local <= p.local_time(at) && p.keyset_at(local).contains(key))
    }

    /// `fresh_{t',P} X`: `t'` is within the observer's horizon and no
    /// party said `X` at any local time `<= t'`.
    fn fresh(&self, observer: &Subject, local: Time, at: Time, msg: &Message) -> bool {
        if let Some(obs) = self.run.party(observer) {
            if local > obs.local_time(at) {
                return false;
            }
        }
        !self.run.parties().any(|p| {
            let keys = p.keyset_at(local);
            p.all_sends()
                .iter()
                .any(|(tt, m)| *tt <= local && m.submessages(&keys).contains(&msg))
        })
    }

    /// `K ⇒_{t',Q} S`: signature-checking keys are good if they properly
    /// identify signatures — every `⟨X⟩_{K⁻¹}` received by the observer
    /// must have been said by `S`.
    fn key_speaks_for(
        &self,
        key: &KeyId,
        local: Time,
        at: Time,
        observer: Option<&crate::syntax::PrincipalId>,
        subject: &Subject,
    ) -> bool {
        let observers: Vec<&Subject> = match observer {
            Some(q) => {
                let qs = Subject::Principal(q.clone());
                match self.run.party(&qs) {
                    Some(p) if local <= p.local_time(at) => vec![&p.subject],
                    _ => return false,
                }
            }
            None => self.run.parties().map(|p| &p.subject).collect(),
        };
        for q in observers {
            let Some(qp) = self.run.party(q) else {
                continue;
            };
            let keys = qp.keyset_at(local);
            for m in qp.received_by(local) {
                for sub in m.submessages(&keys) {
                    if let Message::Signed(_, k) = sub {
                        // A good key's signatures originate from the owner:
                        // the owner said the signed message (and hence, by
                        // A17, its payload). The paper's condition asks only
                        // for the payload; we use the stronger form so both
                        // conjuncts of A10's conclusion are sound.
                        if k == key && !self.said(subject, local, at, sub) {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// `S ⇒_{t'} G`: membership/speaks-for, per subject shape.
    fn member_of(&self, subject: &Subject, local: Time, at: Time, group: &GroupId) -> bool {
        let g = Subject::principal(group.as_str());
        match subject {
            // CP_{m,n} with key-bound members: whenever ≥ m members sign the
            // same X at t, the group says X at t.
            Subject::Threshold { members, m } => {
                let mut obligations: Vec<(Time, Message)> = Vec::new();
                // Collect all (t, X) signed by members with their keys.
                for member in members {
                    let Subject::Bound(inner, key) = member else {
                        // Unbound members: treat their plain says as signing.
                        let says = self
                            .run
                            .party(member)
                            .map(|p| p.all_sends())
                            .unwrap_or_default();
                        for (tt, msg) in says {
                            if tt <= local {
                                obligations.push((tt, msg.clone()));
                            }
                        }
                        continue;
                    };
                    let inner_subject: &Subject = inner;
                    let Some(p) = self.run.party(inner_subject) else {
                        continue;
                    };
                    for (tt, msg) in p.all_sends() {
                        if tt > local {
                            continue;
                        }
                        for sub in msg.submessages(&p.keyset_at(tt)) {
                            if let Message::Signed(x, k) = sub {
                                if k == key {
                                    obligations.push((tt, (**x).clone()));
                                }
                            }
                        }
                    }
                }
                // For each (t, X) reached by >= m distinct members, require
                // G says_t X.
                let mut checked: Vec<(Time, &Message)> = Vec::new();
                for (tt, x) in &obligations {
                    if checked.iter().any(|(ct, cx)| ct == tt && *cx == x) {
                        continue;
                    }
                    checked.push((*tt, x));
                    let signer_count = members
                        .iter()
                        .filter(|member| self.member_signed(member, *tt, at, x))
                        .count();
                    if signer_count >= *m && !self.says(&g, *tt, at, x) {
                        return false;
                    }
                }
                true
            }
            // P|K ⇒ G: P says ⟨X⟩_{K⁻¹} implies G says X (and K must speak
            // for P).
            Subject::Bound(inner, key) => {
                if !self.key_speaks_for(key, local, at, None, inner) {
                    return false;
                }
                let Some(p) = self.run.party(inner) else {
                    return true;
                };
                for (tt, msg) in p.all_sends() {
                    if tt > local {
                        continue;
                    }
                    for sub in msg.submessages(&p.keyset_at(tt)) {
                        if let Message::Signed(x, k) = sub {
                            if k == key && !self.says(&g, tt, at, x) {
                                return false;
                            }
                        }
                    }
                }
                true
            }
            // P ⇒ G / CP ⇒ G: whatever the subject says, the group says.
            _ => {
                let Some(p) = self.run.party(subject) else {
                    return true;
                };
                for (tt, msg) in p.all_sends() {
                    if tt <= local && !self.says(&g, tt, at, msg) {
                        return false;
                    }
                }
                true
            }
        }
    }

    /// Did `member` (a bound or plain subject) sign `x` at local time `t`?
    fn member_signed(&self, member: &Subject, t: Time, at: Time, x: &Message) -> bool {
        match member {
            Subject::Bound(inner, key) => {
                let Some(p) = self.run.party(inner) else {
                    return false;
                };
                p.sends_at(t).iter().any(|m| {
                    m.submessages(&p.keyset_at(t))
                        .iter()
                        .any(|sub| matches!(sub, Message::Signed(ix, k) if k == key && **ix == *x))
                })
            }
            other => self.says(other, t, at, x),
        }
    }

    /// `S controls_{t'} φ`: `S says φ` (as a message) implies `φ at_S t'`.
    fn controls(&self, s: &Subject, local: Time, at: Time, f: &Formula) -> bool {
        let as_msg = Message::formula(f.clone());
        if self.says(s, local, at, &as_msg) {
            self.holds_at(s, local, f)
        } else {
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::RunBuilder;

    fn p(name: &str) -> Subject {
        Subject::principal(name)
    }

    fn k(name: &str) -> KeyId {
        KeyId::new(name)
    }

    /// A run where CA sends P a message signed with K_CA, honestly.
    fn honest_run() -> Model {
        let mut b = RunBuilder::new();
        b.party(p("CA"), 0).party(p("P"), 0);
        b.give_key(&p("CA"), k("K_CA"), Time(0));
        let signed = Message::data("cert").signed(k("K_CA"));
        b.deliver(&p("CA"), &p("P"), signed, Time(5), 1);
        Model::new(b.build())
    }

    #[test]
    fn received_and_says_basics() {
        let m = honest_run();
        let signed = Message::data("cert").signed(k("K_CA"));
        assert!(m.eval(Time(6), &Formula::received(p("P"), Time(6), signed.clone())));
        assert!(!m.eval(Time(6), &Formula::received(p("P"), Time(5), signed.clone())));
        assert!(m.eval(Time(5), &Formula::says(p("CA"), Time(5), signed.clone())));
        assert!(m.eval(Time(9), &Formula::said(p("CA"), Time(9), signed)));
        // A12: received ⟨X⟩ implies received X.
        assert!(m.eval(
            Time(6),
            &Formula::received(p("P"), Time(6), Message::data("cert"))
        ));
    }

    #[test]
    fn key_speaks_for_holds_in_honest_run() {
        let m = honest_run();
        let f = Formula::key_speaks_for(k("K_CA"), Time(6), p("CA"));
        assert!(m.eval(Time(6), &f));
    }

    #[test]
    fn key_speaks_for_fails_when_key_is_stolen() {
        // Mallory also signs with K_CA; the key no longer speaks for CA
        // alone.
        let mut b = RunBuilder::new();
        b.party(p("CA"), 0).party(p("P"), 0).party(p("Mallory"), 0);
        b.give_key(&p("CA"), k("K_CA"), Time(0));
        b.give_key(&p("Mallory"), k("K_CA"), Time(0));
        let forged = Message::data("forged").signed(k("K_CA"));
        b.deliver(&p("Mallory"), &p("P"), forged, Time(3), 1);
        let m = Model::new(b.build());
        let f = Formula::key_speaks_for(k("K_CA"), Time(6), p("CA"));
        assert!(!m.eval(Time(6), &f), "CA never said the forged message");
    }

    #[test]
    fn a10_schema_holds_in_model() {
        // K ⇒_{t,P} Q ∧ P received_t ⟨X⟩_{K⁻¹} ⊃ Q said_{t} X.
        let m = honest_run();
        let signed = Message::data("cert").signed(k("K_CA"));
        let antecedent = Formula::and(
            Formula::key_speaks_for(k("K_CA"), Time(6), p("CA")),
            Formula::received(p("P"), Time(6), signed),
        );
        let consequent = Formula::said(p("CA"), Time(6), Message::data("cert"));
        assert!(m.eval(Time(6), &Formula::implies(antecedent, consequent)));
    }

    #[test]
    fn member_of_plain_subject() {
        // U says "x" at t3 and the group (as a principal) also says "x" at
        // t3 → U ⇒ G holds; without the group echo it fails.
        let mut b = RunBuilder::new();
        b.party(p("U"), 0).party(p("G_write"), 0).party(p("P"), 0);
        b.deliver(&p("U"), &p("P"), Message::data("x"), Time(3), 1);
        b.deliver(&p("G_write"), &p("P"), Message::data("x"), Time(3), 1);
        let m = Model::new(b.build());
        assert!(m.eval(
            Time(5),
            &Formula::member_of(p("U"), Time(5), GroupId::new("G_write"))
        ));

        let mut b2 = RunBuilder::new();
        b2.party(p("U"), 0).party(p("G_write"), 0).party(p("P"), 0);
        b2.deliver(&p("U"), &p("P"), Message::data("x"), Time(3), 1);
        let m2 = Model::new(b2.build());
        assert!(!m2.eval(
            Time(5),
            &Formula::member_of(p("U"), Time(5), GroupId::new("G_write"))
        ));
    }

    #[test]
    fn threshold_membership_obligation() {
        // 2-of-3: two members sign the same X at t4; group must say X at t4.
        let members = vec![
            p("U1").bound(k("K1")),
            p("U2").bound(k("K2")),
            p("U3").bound(k("K3")),
        ];
        let cp = Subject::threshold(members, 2);
        let x = Message::data("write O");

        let mut b = RunBuilder::new();
        for (i, u) in ["U1", "U2", "U3"].iter().enumerate() {
            b.party(p(u), 0);
            b.give_key(&p(u), k(&format!("K{}", i + 1)), Time(0));
        }
        b.party(p("G_write"), 0).party(p("P"), 0);
        b.deliver(&p("U1"), &p("P"), x.clone().signed(k("K1")), Time(4), 1);
        b.deliver(&p("U2"), &p("P"), x.clone().signed(k("K2")), Time(4), 1);
        b.deliver(&p("G_write"), &p("P"), x.clone(), Time(4), 1);
        let m = Model::new(b.build());
        assert!(m.eval(
            Time(6),
            &Formula::member_of(cp.clone(), Time(6), GroupId::new("G_write"))
        ));

        // Without the group echo, membership is false (the threshold was
        // met but the group did not speak).
        let mut b2 = RunBuilder::new();
        for (i, u) in ["U1", "U2", "U3"].iter().enumerate() {
            b2.party(p(u), 0);
            b2.give_key(&p(u), k(&format!("K{}", i + 1)), Time(0));
        }
        b2.party(p("G_write"), 0).party(p("P"), 0);
        b2.deliver(&p("U1"), &p("P"), x.clone().signed(k("K1")), Time(4), 1);
        b2.deliver(&p("U2"), &p("P"), x.clone().signed(k("K2")), Time(4), 1);
        let m2 = Model::new(b2.build());
        assert!(!m2.eval(
            Time(6),
            &Formula::member_of(cp.clone(), Time(6), GroupId::new("G_write"))
        ));

        // One signature only: below threshold, no obligation, membership
        // holds vacuously.
        let mut b3 = RunBuilder::new();
        for (i, u) in ["U1", "U2", "U3"].iter().enumerate() {
            b3.party(p(u), 0);
            b3.give_key(&p(u), k(&format!("K{}", i + 1)), Time(0));
        }
        b3.party(p("G_write"), 0).party(p("P"), 0);
        b3.deliver(&p("U1"), &p("P"), x.clone().signed(k("K1")), Time(4), 1);
        let m3 = Model::new(b3.build());
        assert!(m3.eval(
            Time(6),
            &Formula::member_of(cp, Time(6), GroupId::new("G_write"))
        ));
    }

    #[test]
    fn fresh_until_said() {
        let m = honest_run();
        let msg = Message::data("cert");
        let fresh_before = Formula::Fresh {
            observer: p("P"),
            when: TimeRef::At(Time(4)),
            msg: msg.clone(),
        };
        let fresh_after = Formula::Fresh {
            observer: p("P"),
            when: TimeRef::At(Time(6)),
            msg,
        };
        assert!(m.eval(Time(4), &fresh_before));
        assert!(!m.eval(Time(6), &fresh_after));
    }

    #[test]
    fn controls_vacuous_and_active() {
        // S controls φ is vacuously true when S never says φ.
        let m = honest_run();
        let phi = Formula::Prop("policy".into());
        assert!(m.eval(Time(5), &Formula::controls(p("CA"), Time(5), phi.clone())));

        // When S says φ and φ is false, controls fails.
        let mut b = RunBuilder::new();
        b.party(p("S"), 0).party(p("P"), 0);
        b.deliver(&p("S"), &p("P"), Message::formula(phi.clone()), Time(3), 1);
        let m2 = Model::new(b.build());
        assert!(!m2.eval(Time(3), &Formula::controls(p("S"), Time(3), phi.clone())));
        // ... and succeeds when φ is true.
        let mut m3 = m2.clone();
        m3.assert_prop("policy");
        assert!(m3.eval(Time(3), &Formula::controls(p("S"), Time(3), phi)));
    }

    #[test]
    fn interval_time_refs() {
        let m = honest_run();
        let said = |tr: TimeRef| Formula::Said(p("CA"), tr, Message::data("cert"));
        // said holds from t5 onward.
        assert!(m.eval(Time(9), &said(TimeRef::Closed(Time(5), Time(9)))));
        assert!(!m.eval(Time(9), &said(TimeRef::Closed(Time(3), Time(9)))));
        assert!(m.eval(Time(9), &said(TimeRef::Within(Time(0), Time(9)))));
        assert!(!m.eval(Time(9), &said(TimeRef::Within(Time(0), Time(4)))));
    }

    #[test]
    fn clock_skew_respected_by_at() {
        let mut b = RunBuilder::new();
        b.party(p("A"), 100).party(p("B"), 0);
        b.deliver(&p("A"), &p("B"), Message::data("m"), Time(5), 0);
        let m = Model::new(b.build());
        // A's send happened at A-local t105.
        assert!(m.eval(
            Time(5),
            &Formula::says(p("A"), Time(105), Message::data("m"))
        ));
        assert!(!m.eval(Time(5), &Formula::says(p("A"), Time(5), Message::data("m"))));
        // φ at_A works in A's local time.
        let at = Formula::at(
            Formula::says(p("A"), Time(105), Message::data("m")),
            p("A"),
            Time(105),
        );
        assert!(m.eval(Time(5), &at));
    }

    #[test]
    fn formulas_about_the_future_are_false() {
        // Appendix C: "for nonnegated basic formulas, only formulas about
        // the past can be true" — t' must satisfy t' <= Time_P(r, t).
        let m = honest_run();
        let signed = Message::data("cert").signed(k("K_CA"));
        // At evaluation point t3, a statement subscripted t5 is not yet
        // true, even though the send does occur at t5 in the run.
        assert!(!m.eval(Time(3), &Formula::says(p("CA"), Time(5), signed.clone())));
        assert!(!m.eval(Time(3), &Formula::received(p("P"), Time(6), signed.clone())));
        assert!(!m.eval(Time(3), &Formula::said(p("CA"), Time(5), signed.clone())));
        // From t5 / t6 onward they become true and stay true (stability).
        assert!(m.eval(Time(5), &Formula::says(p("CA"), Time(5), signed.clone())));
        assert!(m.eval(Time(9), &Formula::received(p("P"), Time(6), signed)));
    }

    #[test]
    fn logical_connectives() {
        let mut m = honest_run();
        m.assert_prop("a");
        let a = Formula::Prop("a".into());
        let b = Formula::Prop("b".into());
        assert!(m.eval(Time(0), &a));
        assert!(!m.eval(Time(0), &b));
        assert!(m.eval(Time(0), &Formula::not(b.clone())));
        assert!(!m.eval(Time(0), &Formula::and(a.clone(), b.clone())));
        assert!(m.eval(Time(0), &Formula::implies(b, a)));
        assert!(m.eval(Time(0), &Formula::TimeLe(Time(1), Time(2))));
    }
}
