//! The coalition access-control logic of Khurana–Gligor–Linn (ICDCS 2002).
//!
//! This crate is the paper's primary contribution, implemented as an
//! executable system:
//!
//! * [`syntax`] — terms, principals, **compound principals** `CP = {P₁…Pₙ}`,
//!   threshold compounds `CP_{m,n}`, key-bound subjects `P|K`, messages and
//!   the full formula language of Appendix A (F1–F22).
//! * [`axioms`] — the axiom schemas A1–A38 and inference rules R1/R2 of
//!   Appendix B, as first-class values with the paper's statements attached.
//! * [`certs`] — idealized time-stamped certificates (identity, attribute,
//!   threshold attribute, and their revocations) exactly as written in §4.2.
//! * [`engine`] — a derivation engine: initial beliefs (trust assumptions) +
//!   received messages + axioms ⟹ new beliefs, with machine-checkable
//!   [`Derivation`] proof trees naming the axiom applied at every node.
//! * [`protocol`] — the four-step authorization protocol of §4.3/Appendix E
//!   (verify signing keys → establish group membership → verify signed
//!   request → check the ACL), plus believe-until-revoked revocation
//!   reasoning.
//! * [`semantics`] — the runs-based model of computation of Appendix C
//!   (events, histories, local/global states, legal runs) and an evaluator
//!   for the truth conditions, used to reproduce the soundness theorem of
//!   Appendix D as executable property tests.
//!
//! # Scope notes
//!
//! Ground formulas carry concrete timestamps; the paper's universally
//! quantified initial beliefs (e.g. "∀G′, CP′, t′b, t′e: AA controls
//! CP′ ⇒ G′") are represented as *trust assumption schemas* in the engine
//! ([`engine::TrustAssumptions`]) that instantiate to ground formulas on
//! use — the same finitization every executable authorization system
//! applies to jurisdiction rules. Clock annotations `(t, P)` are normalized
//! to the verifying server's clock, as in the paper's protocol where all
//! derivations happen at server `P`.
//!
//! # Example
//!
//! ```
//! use jaap_core::prelude::*;
//!
//! // Subjects: three users bound to their public keys, 2-of-3 threshold.
//! let users: Vec<Subject> = (1..=3)
//!     .map(|i| Subject::principal(format!("User_D{i}")).bound(KeyId::new(format!("K_u{i}"))))
//!     .collect();
//! let cp = Subject::threshold(users, 2);
//! let g_write = GroupId::new("G_write");
//!
//! // The idealized threshold attribute certificate of §4.2:
//! //   AA says_taa  CP'_{2,3} ⇒ [tb', te'] G_write   (signed with K_AA⁻¹)
//! let cert = Certs::threshold_attribute(
//!     "AA", KeyId::new("K_AA"), cp, g_write, Time(10), Validity::new(Time(0), Time(100)),
//! );
//! assert!(format!("{cert}").contains("⇒"));
//! ```

#![forbid(unsafe_code)]

pub mod axioms;
pub mod certs;
pub mod engine;
pub mod memo;
pub mod protocol;
pub mod semantics;
pub mod syntax;

mod derivation;
mod error;

pub use derivation::Derivation;
pub use error::LogicError;
pub use memo::MemoStats;

/// Convenient glob-import surface for downstream crates and examples.
pub mod prelude {
    pub use crate::axioms::Axiom;
    pub use crate::certs::{Certs, Validity};
    pub use crate::engine::{Engine, TrustAssumptions};
    pub use crate::protocol::{
        AccessDecision, AccessRequest, Acl, AclEntry, DenialReason, Operation, SignedStatement,
    };
    pub use crate::syntax::{
        Formula, GroupId, KeyId, Message, PrincipalId, Subject, Time, TimeRef,
    };
    pub use crate::{Derivation, LogicError};
}
