//! Principals, compound principals, groups and key names.

use core::fmt;
use std::sync::Arc;

/// A system principal's name (a user, domain, server, CA, AA, …).
///
/// Cheap to clone (`Arc<str>` internally).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PrincipalId(Arc<str>);

impl PrincipalId {
    /// Creates a principal name.
    #[must_use]
    pub fn new(name: impl AsRef<str>) -> Self {
        PrincipalId(Arc::from(name.as_ref()))
    }

    /// The name as a string slice.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for PrincipalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for PrincipalId {
    fn from(s: &str) -> Self {
        PrincipalId::new(s)
    }
}

impl From<String> for PrincipalId {
    fn from(s: String) -> Self {
        PrincipalId::new(s)
    }
}

/// The name of a public key (e.g. `K_AA`, or a hex key id).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeyId(Arc<str>);

impl KeyId {
    /// Creates a key name.
    #[must_use]
    pub fn new(name: impl AsRef<str>) -> Self {
        KeyId(Arc::from(name.as_ref()))
    }

    /// The name as a string slice.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for KeyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for KeyId {
    fn from(s: &str) -> Self {
        KeyId::new(s)
    }
}

/// A group name, as found on ACLs (e.g. `G_write`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(Arc<str>);

impl GroupId {
    /// Creates a group name.
    #[must_use]
    pub fn new(name: impl AsRef<str>) -> Self {
        GroupId(Arc::from(name.as_ref()))
    }

    /// The name as a string slice.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for GroupId {
    fn from(s: &str) -> Self {
        GroupId::new(s)
    }
}

/// A *subject*: anything that can own keys, say messages, or appear on the
/// left of a speaks-for arrow.
///
/// Covers the paper's system principals `P`, key-bound principals `P|K`
/// (F13), compound principals `CP = {P₁,…,Pₙ}` (F5/F14), key-bound
/// compounds `CP|K` (F16), and threshold compounds `CP_{m,n}` (F10/F15).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Subject {
    /// A single system principal.
    Principal(PrincipalId),
    /// A compound principal: a set of subjects acting collectively.
    Compound(Vec<Subject>),
    /// A threshold compound `CP_{m,n}`: any `m` of the members suffice.
    Threshold {
        /// The member subjects (usually key-bound principals, per F15).
        members: Vec<Subject>,
        /// The threshold `m ≤ members.len()`.
        m: usize,
    },
    /// A subject cryptographically bound to a public key (`S|K`).
    Bound(Arc<Subject>, KeyId),
}

impl Subject {
    /// A single principal subject.
    #[must_use]
    pub fn principal(name: impl AsRef<str>) -> Subject {
        Subject::Principal(PrincipalId::new(name))
    }

    /// A compound principal from member subjects.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    #[must_use]
    pub fn compound(members: Vec<Subject>) -> Subject {
        assert!(!members.is_empty(), "a compound principal needs members");
        Subject::Compound(members)
    }

    /// A threshold compound `CP_{m,n}`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= m <= members.len()`.
    #[must_use]
    pub fn threshold(members: Vec<Subject>, m: usize) -> Subject {
        assert!(
            m >= 1 && m <= members.len(),
            "threshold must satisfy 1 <= m <= n"
        );
        Subject::Threshold { members, m }
    }

    /// Binds this subject to a key: `S|K` (consuming builder).
    #[must_use]
    pub fn bound(self, key: KeyId) -> Subject {
        Subject::Bound(Arc::new(self), key)
    }

    /// The principal name if this is a plain or key-bound single principal.
    #[must_use]
    pub fn principal_id(&self) -> Option<&PrincipalId> {
        match self {
            Subject::Principal(p) => Some(p),
            Subject::Bound(inner, _) => inner.principal_id(),
            _ => None,
        }
    }

    /// The binding key if this is a `S|K` subject.
    #[must_use]
    pub fn binding_key(&self) -> Option<&KeyId> {
        match self {
            Subject::Bound(_, k) => Some(k),
            _ => None,
        }
    }

    /// Number of members (1 for single principals).
    #[must_use]
    pub fn arity(&self) -> usize {
        match self {
            Subject::Principal(_) => 1,
            Subject::Compound(ms) => ms.len(),
            Subject::Threshold { members, .. } => members.len(),
            Subject::Bound(inner, _) => inner.arity(),
        }
    }

    /// The threshold: `m` for `CP_{m,n}`, otherwise the full arity (all
    /// members of a plain compound must act; a single principal acts alone).
    #[must_use]
    pub fn required_signers(&self) -> usize {
        match self {
            Subject::Threshold { m, .. } => *m,
            other => other.arity(),
        }
    }

    /// Iterates over member subjects (self for single principals).
    #[must_use]
    pub fn members(&self) -> Vec<&Subject> {
        match self {
            Subject::Compound(ms) => ms.iter().collect(),
            Subject::Threshold { members, .. } => members.iter().collect(),
            Subject::Bound(inner, _) => inner.members(),
            single => vec![single],
        }
    }
}

impl fmt::Display for Subject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Subject::Principal(p) => write!(f, "{p}"),
            Subject::Compound(ms) => {
                write!(f, "{{")?;
                for (i, m) in ms.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{m}")?;
                }
                write!(f, "}}")
            }
            Subject::Threshold { members, m } => {
                write!(f, "{{")?;
                for (i, s) in members.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{s}")?;
                }
                write!(f, "}}_{{{},{}}}", m, members.len())
            }
            Subject::Bound(inner, key) => write!(f, "{inner}|{key}"),
        }
    }
}

impl From<PrincipalId> for Subject {
    fn from(p: PrincipalId) -> Self {
        Subject::Principal(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn principal_display() {
        assert_eq!(Subject::principal("User_D1").to_string(), "User_D1");
    }

    #[test]
    fn bound_subject_display_and_accessors() {
        let s = Subject::principal("P").bound(KeyId::new("K_P"));
        assert_eq!(s.to_string(), "P|K_P");
        assert_eq!(s.principal_id().map(PrincipalId::as_str), Some("P"));
        assert_eq!(s.binding_key().map(KeyId::as_str), Some("K_P"));
    }

    #[test]
    fn compound_members_and_arity() {
        let cp = Subject::compound(vec![
            Subject::principal("D1"),
            Subject::principal("D2"),
            Subject::principal("D3"),
        ]);
        assert_eq!(cp.arity(), 3);
        assert_eq!(cp.required_signers(), 3);
        assert_eq!(cp.to_string(), "{D1, D2, D3}");
        assert_eq!(cp.members().len(), 3);
        assert_eq!(cp.principal_id(), None);
    }

    #[test]
    fn threshold_display_and_required_signers() {
        let cp = Subject::threshold(
            vec![
                Subject::principal("U1").bound(KeyId::new("K1")),
                Subject::principal("U2").bound(KeyId::new("K2")),
                Subject::principal("U3").bound(KeyId::new("K3")),
            ],
            2,
        );
        assert_eq!(cp.required_signers(), 2);
        assert_eq!(cp.arity(), 3);
        assert_eq!(cp.to_string(), "{U1|K1, U2|K2, U3|K3}_{2,3}");
    }

    #[test]
    #[should_panic(expected = "1 <= m <= n")]
    fn threshold_above_n_panics() {
        let _ = Subject::threshold(vec![Subject::principal("P")], 2);
    }

    #[test]
    #[should_panic(expected = "needs members")]
    fn empty_compound_panics() {
        let _ = Subject::compound(vec![]);
    }

    #[test]
    fn single_principal_members_is_self() {
        let p = Subject::principal("P");
        assert_eq!(p.members(), vec![&p]);
        assert_eq!(p.required_signers(), 1);
    }

    #[test]
    fn ids_equal_by_content() {
        assert_eq!(PrincipalId::new("A"), PrincipalId::from("A"));
        assert_ne!(KeyId::new("K1"), KeyId::new("K2"));
        assert_eq!(GroupId::new("G").as_str(), "G");
    }
}
