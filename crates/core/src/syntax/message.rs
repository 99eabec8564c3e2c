//! Messages (paper Appendix A, rules M1–M3).
//!
//! Messages and formulas are defined by mutual induction: a formula is a
//! message (M1), primitive terms are messages (M2), and function images of
//! messages — tuples, signatures `⟨X⟩_{K⁻¹}`, encryptions `{X}_K` — are
//! messages (M3).

use core::fmt;
use std::sync::Arc;

use super::{Formula, KeyId, PrincipalId, Time};

/// A message of the logic.
///
/// Like [`Formula`], submessages sit behind [`Arc`] so clones are shallow.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Message {
    /// M1: a formula used as a message (e.g. the body of a certificate).
    Formula(Arc<Formula>),
    /// M2: an opaque data constant (e.g. `"write" O`).
    Data(String),
    /// M2: a principal name.
    Name(PrincipalId),
    /// M2: a time constant.
    TimeVal(Time),
    /// M2: a nonce.
    Nonce(u64),
    /// M3: a tuple `(X₁, …, Xₙ)`.
    Tuple(Vec<Message>),
    /// M3: a digital signature `⟨X⟩_{K⁻¹}` (message signed with the private
    /// key corresponding to `K`).
    Signed(Arc<Message>, KeyId),
    /// M3: an encryption `{X}_K`.
    Encrypted(Arc<Message>, KeyId),
}

impl Message {
    /// Data constant constructor.
    #[must_use]
    pub fn data(s: impl Into<String>) -> Message {
        Message::Data(s.into())
    }

    /// Wraps a formula as a message.
    #[must_use]
    pub fn formula(f: Formula) -> Message {
        Message::Formula(Arc::new(f))
    }

    /// Signs this message with (the private counterpart of) `key`.
    #[must_use]
    pub fn signed(self, key: KeyId) -> Message {
        Message::Signed(Arc::new(self), key)
    }

    /// Encrypts this message under `key`.
    #[must_use]
    pub fn encrypted(self, key: KeyId) -> Message {
        Message::Encrypted(Arc::new(self), key)
    }

    /// If this is a signed message, its payload and signing key.
    #[must_use]
    pub fn as_signed(&self) -> Option<(&Message, &KeyId)> {
        match self {
            Message::Signed(inner, k) => Some((inner, k)),
            _ => None,
        }
    }

    /// If this is (or wraps) a formula, that formula.
    #[must_use]
    pub(crate) fn as_formula(&self) -> Option<&Formula> {
        match self {
            Message::Formula(f) => Some(f),
            _ => None,
        }
    }

    /// The set of submessages derivable with decryption keys `keys`
    /// (the paper's `submsgs_K(M)`): the message itself, tuple components,
    /// signed payloads, and encrypted payloads for keys we can invert.
    #[must_use]
    pub(crate) fn submessages(&self, decryption_keys: &[KeyId]) -> Vec<&Message> {
        let mut out = vec![self];
        match self {
            Message::Tuple(parts) => {
                for p in parts {
                    out.extend(p.submessages(decryption_keys));
                }
            }
            Message::Signed(inner, _) => out.extend(inner.submessages(decryption_keys)),
            Message::Encrypted(inner, k) if decryption_keys.contains(k) => {
                out.extend(inner.submessages(decryption_keys));
            }
            _ => {}
        }
        out
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Message::Formula(inner) => write!(f, "{inner}"),
            Message::Data(s) => write!(f, "\"{s}\""),
            Message::Name(p) => write!(f, "{p}"),
            Message::TimeVal(t) => write!(f, "{t}"),
            Message::Nonce(n) => write!(f, "nonce#{n}"),
            Message::Tuple(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Message::Signed(inner, k) => write!(f, "⟨{inner}⟩_{{{k}⁻¹}}"),
            Message::Encrypted(inner, k) => write!(f, "{{{inner}}}_{{{k}}}"),
        }
    }
}

impl From<Formula> for Message {
    fn from(f: Formula) -> Self {
        Message::formula(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> KeyId {
        KeyId::new(s)
    }

    #[test]
    fn display_signed_and_encrypted() {
        let m = Message::data("write O").signed(k("Ku1"));
        assert_eq!(m.to_string(), "⟨\"write O\"⟩_{Ku1⁻¹}");
        let e = Message::data("secret").encrypted(k("Kp"));
        assert_eq!(e.to_string(), "{\"secret\"}_{Kp}");
    }

    #[test]
    fn as_signed_unwraps() {
        let m = Message::data("x").signed(k("K"));
        let (inner, key) = m.as_signed().expect("signed");
        assert_eq!(inner, &Message::data("x"));
        assert_eq!(key, &k("K"));
        assert!(Message::data("x").as_signed().is_none());
    }

    #[test]
    fn submessages_opens_tuples_and_signatures() {
        let m = Message::Tuple(vec![Message::data("a"), Message::data("b").signed(k("K"))]);
        let subs = m.submessages(&[]);
        assert!(subs.contains(&&Message::data("a")));
        assert!(subs.contains(&&Message::data("b")));
        assert!(subs.contains(&&Message::data("b").signed(k("K"))));
    }

    #[test]
    fn submessages_respects_encryption() {
        let m = Message::data("hidden").encrypted(k("K"));
        assert!(!m.submessages(&[]).contains(&&Message::data("hidden")));
        assert!(m.submessages(&[k("K")]).contains(&&Message::data("hidden")));
    }

    #[test]
    fn nested_encryption_needs_both_keys() {
        let m = Message::data("deep").encrypted(k("K1")).encrypted(k("K2"));
        assert!(!m.submessages(&[k("K2")]).contains(&&Message::data("deep")));
        assert!(m
            .submessages(&[k("K1"), k("K2")])
            .contains(&&Message::data("deep")));
    }

    #[test]
    fn tuple_display() {
        let m = Message::Tuple(vec![Message::data("a"), Message::Nonce(7)]);
        assert_eq!(m.to_string(), "(\"a\", nonce#7)");
    }
}
