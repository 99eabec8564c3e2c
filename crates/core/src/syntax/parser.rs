//! A parser for the paper's formula notation, inverse to the `Display`
//! implementations.
//!
//! The textual forms of keys, groups and principals are all identifiers, so
//! the parser takes a [`Vocabulary`] declaring which identifiers denote
//! keys and which denote groups (everything else is a principal) — exactly
//! the sort information the paper's idealization step assumes.
//!
//! Round-trip law (checked by property tests): for any formula `f` whose
//! primitive propositions are identifiers,
//! `parse_formula(&f.to_string(), &Vocabulary::from_formula(&f)) == Ok(f)`.

use std::collections::BTreeSet;

use super::{Formula, GroupId, KeyId, Message, PrincipalId, Subject, Time, TimeRef};

/// Sort declarations: which identifiers are keys, which are groups.
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    keys: BTreeSet<String>,
    groups: BTreeSet<String>,
}

impl Vocabulary {
    /// An empty vocabulary (every identifier is a principal).
    #[must_use]
    pub(crate) fn new() -> Self {
        Vocabulary::default()
    }

    /// Declares a key identifier.
    pub(crate) fn key(&mut self, name: impl Into<String>) -> &mut Self {
        self.keys.insert(name.into());
        self
    }

    /// Declares a group identifier.
    pub(crate) fn group(&mut self, name: impl Into<String>) -> &mut Self {
        self.groups.insert(name.into());
        self
    }

    /// Collects the vocabulary used by a formula (for round-trips).
    #[must_use]
    pub fn from_formula(f: &Formula) -> Self {
        let mut v = Vocabulary::new();
        v.collect_formula(f);
        v
    }

    fn is_key(&self, s: &str) -> bool {
        self.keys.contains(s)
    }

    fn is_group(&self, s: &str) -> bool {
        self.groups.contains(s)
    }

    fn collect_formula(&mut self, f: &Formula) {
        match f {
            Formula::Prop(_) | Formula::TimeLe(_, _) => {}
            Formula::Not(a) => self.collect_formula(a),
            Formula::And(a, b) | Formula::Implies(a, b) => {
                self.collect_formula(a);
                self.collect_formula(b);
            }
            Formula::Believes(s, _, a) | Formula::Controls(s, _, a) => {
                self.collect_subject(s);
                self.collect_formula(a);
            }
            Formula::Says(s, _, m) | Formula::Said(s, _, m) | Formula::Received(s, _, m) => {
                self.collect_subject(s);
                self.collect_message(m);
            }
            Formula::KeySpeaksFor { key, subject, .. } => {
                self.key(key.as_str());
                self.collect_subject(subject);
            }
            Formula::Has(s, _, k) => {
                self.collect_subject(s);
                self.key(k.as_str());
            }
            Formula::MemberOf { subject, group, .. } => {
                self.collect_subject(subject);
                self.group(group.as_str());
            }
            Formula::GroupSays(g, _, m) => {
                self.group(g.as_str());
                self.collect_message(m);
            }
            Formula::Fresh { observer, msg, .. } => {
                self.collect_subject(observer);
                self.collect_message(msg);
            }
            Formula::At(a, place, _) => {
                self.collect_formula(a);
                self.collect_subject(place);
            }
        }
    }

    fn collect_subject(&mut self, s: &Subject) {
        match s {
            Subject::Principal(_) => {}
            Subject::Compound(ms) | Subject::Threshold { members: ms, .. } => {
                for m in ms {
                    self.collect_subject(m);
                }
            }
            Subject::Bound(inner, k) => {
                self.key(k.as_str());
                self.collect_subject(inner);
            }
        }
    }

    fn collect_message(&mut self, m: &Message) {
        match m {
            Message::Formula(f) => self.collect_formula(f),
            Message::Tuple(parts) => {
                for p in parts {
                    self.collect_message(p);
                }
            }
            Message::Signed(inner, k) | Message::Encrypted(inner, k) => {
                self.key(k.as_str());
                self.collect_message(inner);
            }
            _ => {}
        }
    }
}

/// A parse failure: byte position and explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFormulaError {
    /// Byte offset where parsing failed.
    pub(crate) position: usize,
    /// What was expected.
    pub(crate) message: String,
}

impl core::fmt::Display for ParseFormulaError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseFormulaError {}

/// Parses a formula in display notation.
///
/// ```
/// use jaap_core::syntax::{parse_formula, Formula, Vocabulary};
///
/// # fn main() -> Result<(), jaap_core::syntax::ParseFormulaError> {
/// // With an empty vocabulary every identifier is a principal.
/// let f = parse_formula("P believes_t6 User_D1 says_t5 p", &Vocabulary::default())?;
/// assert!(matches!(f, Formula::Believes { .. }));
/// // Round-trip: display then re-parse.
/// assert_eq!(parse_formula(&f.to_string(), &Vocabulary::from_formula(&f))?, f);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// [`ParseFormulaError`] on malformed input or trailing garbage.
pub fn parse_formula(input: &str, vocab: &Vocabulary) -> Result<Formula, ParseFormulaError> {
    let mut c = Cursor::new(input, vocab);
    let f = c.formula()?;
    c.skip_ws();
    if c.pos < c.chars.len() {
        return Err(c.err("trailing input"));
    }
    Ok(f)
}

struct Cursor<'a> {
    chars: Vec<char>,
    pos: usize,
    vocab: &'a Vocabulary,
    /// Deepest failure seen, for useful messages after backtracking.
    best_err: Option<ParseFormulaError>,
}

impl<'a> Cursor<'a> {
    fn new(input: &str, vocab: &'a Vocabulary) -> Self {
        Cursor {
            chars: input.chars().collect(),
            pos: 0,
            vocab,
            best_err: None,
        }
    }

    fn err(&mut self, message: &str) -> ParseFormulaError {
        let e = ParseFormulaError {
            position: self.pos,
            message: message.to_string(),
        };
        if self
            .best_err
            .as_ref()
            .is_none_or(|b| e.position >= b.position)
        {
            self.best_err = Some(e.clone());
        }
        e
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while self.peek() == Some(' ') {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let save = self.pos;
        for want in lit.chars() {
            if self.bump() != Some(want) {
                self.pos = save;
                return false;
            }
        }
        true
    }

    fn expect(&mut self, lit: &str) -> Result<(), ParseFormulaError> {
        if self.eat(lit) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {lit:?}")))
        }
    }

    fn ident(&mut self) -> Result<String, ParseFormulaError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || matches!(c, '_' | ':' | '.' | '-' | '#') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected an identifier"));
        }
        Ok(self.chars[start..self.pos].iter().collect())
    }

    // ---- times ----

    fn time(&mut self) -> Result<Time, ParseFormulaError> {
        if self.eat("∞") {
            return Ok(Time::INFINITY);
        }
        self.expect("t")?;
        let start = self.pos;
        if self.peek() == Some('-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        let digits: String = self.chars[start..self.pos].iter().collect();
        digits
            .parse::<i64>()
            .map(Time)
            .map_err(|_| self.err("expected a time literal"))
    }

    fn time_ref(&mut self) -> Result<TimeRef, ParseFormulaError> {
        if self.eat("[") {
            let lo = self.time()?;
            self.expect(",")?;
            let hi = self.time()?;
            self.expect("]")?;
            return Ok(TimeRef::Closed(lo, hi));
        }
        if self.eat("⟨") {
            let lo = self.time()?;
            self.expect(",")?;
            let hi = self.time()?;
            self.expect("⟩")?;
            return Ok(TimeRef::Within(lo, hi));
        }
        Ok(TimeRef::At(self.time()?))
    }

    /// `T` or `{T,Observer}` (the observer-subscripted form).
    fn time_ref_with_observer(
        &mut self,
    ) -> Result<(TimeRef, Option<PrincipalId>), ParseFormulaError> {
        if self.eat("{") {
            let tr = self.time_ref()?;
            self.expect(",")?;
            let obs = self.ident()?;
            self.expect("}")?;
            Ok((tr, Some(PrincipalId::new(obs))))
        } else {
            Ok((self.time_ref()?, None))
        }
    }

    // ---- subjects ----

    fn subject(&mut self) -> Result<Subject, ParseFormulaError> {
        let base = if self.eat("{") {
            let mut members = vec![self.subject()?];
            while self.eat(", ") {
                members.push(self.subject()?);
            }
            self.expect("}")?;
            if self.eat("_{") {
                let m = self.number()?;
                self.expect(",")?;
                let n = self.number()?;
                self.expect("}")?;
                if m == 0 || m > members.len() || n != members.len() {
                    return Err(self.err("threshold out of range"));
                }
                Subject::Threshold { members, m }
            } else {
                Subject::Compound(members)
            }
        } else {
            Subject::Principal(PrincipalId::new(self.ident()?))
        };
        if self.eat("|") {
            let key = self.ident()?;
            if !self.vocab.is_key(&key) {
                return Err(self.err(&format!("{key:?} is not a declared key")));
            }
            Ok(base.bound(KeyId::new(key)))
        } else {
            Ok(base)
        }
    }

    fn number(&mut self) -> Result<usize, ParseFormulaError> {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        let digits: String = self.chars[start..self.pos].iter().collect();
        digits.parse().map_err(|_| self.err("expected a number"))
    }

    // ---- messages ----

    fn message(&mut self) -> Result<Message, ParseFormulaError> {
        if self.eat("⟨") {
            let inner = self.message()?;
            self.expect("⟩_{")?;
            let key = self.ident()?;
            self.expect("⁻¹}")?;
            return Ok(inner.signed(KeyId::new(key)));
        }
        if self.peek() == Some('"') {
            self.pos += 1;
            let start = self.pos;
            while self.peek().is_some_and(|c| c != '"') {
                self.pos += 1;
            }
            let data: String = self.chars[start..self.pos].iter().collect();
            self.expect("\"")?;
            return Ok(Message::Data(data));
        }
        if self.eat("nonce#") {
            let n = self.number()?;
            return Ok(Message::Nonce(n as u64));
        }
        if self.eat("(") {
            // Could be a tuple `(a, b)` or a parenthesized formula-message
            // `(a ∧ b)`. Try the formula first.
            let save = self.pos;
            self.pos -= 1; // re-include '(' for formula parsing
            if let Ok(f) = self.formula() {
                return Ok(Message::formula(f));
            }
            self.pos = save;
            let mut parts = vec![self.message()?];
            while self.eat(", ") {
                parts.push(self.message()?);
            }
            self.expect(")")?;
            return Ok(Message::Tuple(parts));
        }
        // Formula-as-message (may start with a compound subject `{…}`),
        // otherwise an encryption `{X}_{K}`, a time value, or a bare name.
        {
            let save = self.pos;
            if let Ok(f) = self.formula() {
                if !matches!(f, Formula::Prop(_)) {
                    return Ok(f.into());
                }
            }
            self.pos = save;
        }
        if self.eat("{") {
            let inner = self.message()?;
            self.expect("}_{")?;
            let key = self.ident()?;
            self.expect("}")?;
            return Ok(inner.encrypted(KeyId::new(key)));
        }
        if self.peek() == Some('t') || self.peek() == Some('∞') {
            let save = self.pos;
            if let Ok(t) = self.time() {
                // Maximal munch: "t0A" is a name, not time t0 + garbage.
                let ident_continues = self.peek().is_some_and(|c| {
                    c.is_alphanumeric() || matches!(c, '_' | ':' | '.' | '-' | '#')
                });
                if !ident_continues {
                    return Ok(Message::TimeVal(t));
                }
            }
            self.pos = save;
        }
        Ok(Message::Name(PrincipalId::new(self.ident()?)))
    }

    // ---- formulas ----

    fn formula(&mut self) -> Result<Formula, ParseFormulaError> {
        self.skip_ws();
        if self.eat("¬") {
            return Ok(Formula::not(self.formula()?));
        }
        if self.eat("fresh_{") {
            let when = self.time_ref()?;
            self.expect(",")?;
            let observer = self.subject()?;
            self.expect("}")?;
            self.expect(" ")?;
            let msg = self.message()?;
            return Ok(Formula::Fresh {
                observer,
                when,
                msg,
            });
        }
        if self.eat("(") {
            // `(f ∧ g)`, `(f ⊃ g)`, or `(f at_S T)`.
            let a = self.formula()?;
            if self.eat(" ∧ ") {
                let b = self.formula()?;
                self.expect(")")?;
                return Ok(Formula::and(a, b));
            }
            if self.eat(" ⊃ ") {
                let b = self.formula()?;
                self.expect(")")?;
                return Ok(Formula::implies(a, b));
            }
            if self.eat(" at_") {
                let place = self.subject()?;
                self.expect(" ")?;
                let when = self.time_ref()?;
                self.expect(")")?;
                return Ok(Formula::At(std::sync::Arc::new(a), place, when));
            }
            return Err(self.err("expected ∧, ⊃ or at_ inside parentheses"));
        }
        // TimeLe: `tN ≤ tM`.
        {
            let save = self.pos;
            if let Ok(t1) = self.time() {
                if self.eat(" ≤ ") {
                    let t2 = self.time()?;
                    return Ok(Formula::TimeLe(t1, t2));
                }
            }
            self.pos = save;
        }
        // Key-speaks-for: `K ⇒_T S` with K a declared key.
        {
            let save = self.pos;
            if let Ok(id) = self.ident() {
                if self.vocab.is_key(&id) && self.eat(" ⇒_") {
                    let (when, relative_to) = self.time_ref_with_observer()?;
                    self.expect(" ")?;
                    let subject = self.subject()?;
                    return Ok(Formula::KeySpeaksFor {
                        key: KeyId::new(id),
                        when,
                        relative_to,
                        subject,
                    });
                }
            }
            self.pos = save;
        }
        // Subject-led forms.
        let save = self.pos;
        if let Ok(subject) = self.subject() {
            if self.eat(" believes_") {
                let when = self.time_ref()?;
                self.expect(" ")?;
                return Ok(Formula::believes(subject, when, self.formula()?));
            }
            if self.eat(" controls_") {
                let when = self.time_ref()?;
                self.expect(" ")?;
                return Ok(Formula::controls(subject, when, self.formula()?));
            }
            if self.eat(" says_") {
                let when = self.time_ref()?;
                self.expect(" ")?;
                let msg = self.message()?;
                // A single group identifier speaking is a GroupSays.
                if let Subject::Principal(p) = &subject {
                    if self.vocab.is_group(p.as_str()) {
                        return Ok(Formula::GroupSays(GroupId::new(p.as_str()), when, msg));
                    }
                }
                return Ok(Formula::Says(subject, when, msg));
            }
            if self.eat(" said_") {
                let when = self.time_ref()?;
                self.expect(" ")?;
                return Ok(Formula::Said(subject, when, self.message()?));
            }
            if self.eat(" received_") {
                let when = self.time_ref()?;
                self.expect(" ")?;
                return Ok(Formula::Received(subject, when, self.message()?));
            }
            if self.eat(" has_") {
                let when = self.time_ref()?;
                self.expect(" ")?;
                let key = self.ident()?;
                return Ok(Formula::Has(subject, when, KeyId::new(key)));
            }
            if self.eat(" ⇒_") {
                let (when, relative_to) = self.time_ref_with_observer()?;
                self.expect(" ")?;
                let group = self.ident()?;
                if !self.vocab.is_group(&group) {
                    return Err(self.err(&format!("{group:?} is not a declared group")));
                }
                return Ok(Formula::MemberOf {
                    subject,
                    when,
                    relative_to,
                    group: GroupId::new(group),
                });
            }
            // A bare single identifier is a primitive proposition.
            if let Subject::Principal(p) = subject {
                return Ok(Formula::Prop(p.as_str().to_string()));
            }
        }
        self.pos = save;
        let fallback = self.err("expected a formula");
        Err(self.best_err.clone().unwrap_or(fallback))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vocab() -> Vocabulary {
        let mut v = Vocabulary::new();
        v.key("K_u1").key("K_u2").key("K_AA").key("K_CA1");
        v.group("G_write").group("G_read");
        v
    }

    fn roundtrip(f: &Formula) {
        let text = f.to_string();
        let v = Vocabulary::from_formula(f);
        let parsed =
            parse_formula(&text, &v).unwrap_or_else(|e| panic!("failed to parse {text:?}: {e}"));
        assert_eq!(&parsed, f, "roundtrip mismatch for {text:?}");
    }

    #[test]
    fn parses_paper_statements() {
        let v = vocab();
        // Statement 16: P believes (K_u1 ⇒ [tb,te],CA1 User_D1)
        let f = parse_formula("K_u1 ⇒_{[t0,t100],CA1} User_D1", &v).expect("parse");
        assert!(matches!(f, Formula::KeySpeaksFor { .. }));

        // Statement 22: CP'_{2,3} ⇒ G_write
        let f = parse_formula("{User_D1|K_u1, User_D2|K_u2}_{2,2} ⇒_[t0,t100] G_write", &v)
            .expect("parse");
        let Formula::MemberOf { subject, .. } = &f else {
            panic!("expected MemberOf");
        };
        assert_eq!(subject.required_signers(), 2);

        // Statement 25: G_write says "write" O
        let f = parse_formula("G_write says_t6 \"write O\"", &v).expect("parse");
        assert!(matches!(f, Formula::GroupSays(_, _, _)));

        // And a user says (not a group).
        let f = parse_formula("User_D1 says_t6 \"write O\"", &v).expect("parse");
        assert!(matches!(f, Formula::Says(_, _, _)));
    }

    #[test]
    fn parses_signed_message_statements() {
        let v = vocab();
        let f = parse_formula("P received_t10 ⟨User_D1 says_t9 \"write O\"⟩_{K_u1⁻¹}", &v)
            .expect("parse");
        let Formula::Received(_, _, msg) = &f else {
            panic!("expected Received");
        };
        assert!(msg.as_signed().is_some());
    }

    #[test]
    fn display_parse_roundtrips_by_hand() {
        let cases = vec![
            Formula::TimeLe(Time(1), Time(2)),
            Formula::Prop("p".into()),
            Formula::not(Formula::Prop("p".into())),
            Formula::and(Formula::Prop("a".into()), Formula::Prop("b".into())),
            Formula::implies(Formula::Prop("a".into()), Formula::Prop("b".into())),
            Formula::believes(
                Subject::principal("P"),
                Time(3),
                Formula::group_says(GroupId::new("G_write"), Time(3), Message::data("x")),
            ),
            Formula::key_speaks_for_at(
                KeyId::new("K_u1"),
                TimeRef::Closed(Time(0), Time::INFINITY),
                PrincipalId::new("CA1"),
                Subject::principal("U1"),
            ),
            Formula::member_of(
                Subject::threshold(
                    vec![
                        Subject::principal("A").bound(KeyId::new("K1")),
                        Subject::principal("B").bound(KeyId::new("K2")),
                        Subject::principal("C").bound(KeyId::new("K3")),
                    ],
                    2,
                ),
                TimeRef::Within(Time(1), Time(9)),
                GroupId::new("G_w"),
            ),
            Formula::Fresh {
                observer: Subject::principal("P"),
                when: TimeRef::At(Time(5)),
                msg: Message::data("m").signed(KeyId::new("K")),
            },
            Formula::at(
                Formula::says(Subject::principal("A"), Time(1), Message::data("x")),
                Subject::principal("P"),
                Time(2),
            ),
            Formula::Has(
                Subject::principal("P"),
                TimeRef::At(Time(1)),
                KeyId::new("K1"),
            ),
            Formula::says(
                Subject::compound(vec![Subject::principal("D1"), Subject::principal("D2")]),
                Time(4),
                Message::Tuple(vec![Message::data("a"), Message::Nonce(3)]),
            ),
            Formula::received(
                Subject::principal("P"),
                Time(2),
                Message::data("s").encrypted(KeyId::new("K1")),
            ),
        ];
        for f in &cases {
            roundtrip(f);
        }
    }

    #[test]
    fn idealized_certificates_roundtrip() {
        use crate::certs::{Certs, Validity};
        let cert = Certs::threshold_attribute(
            "AA",
            KeyId::new("K_AA"),
            Subject::threshold(
                vec![
                    Subject::principal("U1").bound(KeyId::new("K_u1")),
                    Subject::principal("U2").bound(KeyId::new("K_u2")),
                    Subject::principal("U3").bound(KeyId::new("K_u3")),
                ],
                2,
            ),
            GroupId::new("G_write"),
            Time(6),
            Validity::new(Time(0), Time(100)),
        );
        // The certificate is ⟨formula⟩_{K⁻¹}; parse its payload formula.
        let payload = cert
            .as_signed()
            .expect("signed")
            .0
            .as_formula()
            .expect("formula");
        roundtrip(payload);
    }

    #[test]
    fn vocabulary_errors_are_reported() {
        let v = vocab();
        // Undeclared group.
        let err = parse_formula("U1 ⇒_t1 G_unknown", &v).unwrap_err();
        assert!(err.message.contains("not a declared group"));
        // Undeclared binding key.
        let err = parse_formula("U1|K_unknown ⇒_t1 G_write", &v).unwrap_err();
        assert!(err.message.contains("not a declared key"));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let v = vocab();
        assert!(parse_formula("p q", &v).is_err());
        assert!(parse_formula("", &v).is_err());
    }

    #[test]
    fn threshold_bounds_checked() {
        let v = vocab();
        assert!(parse_formula("{A, B}_{3,2} ⇒_t1 G_write", &v).is_err());
        assert!(parse_formula("{A, B}_{0,2} ⇒_t1 G_write", &v).is_err());
        assert!(parse_formula("{A, B}_{1,3} ⇒_t1 G_write", &v).is_err());
    }
}
