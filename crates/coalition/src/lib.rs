//! The coalition system of Figure 1: autonomous domains with their own CAs,
//! a jointly-administered Attribute Authority whose private key is shared
//! among the domains, and a coalition server that verifies joint access
//! requests both cryptographically and logically.
//!
//! * [`domain`] — member domains, their identity CAs and users.
//! * [`aa`] — the coalition AA (Case II, shared key) and the Case I
//!   baseline (conventional key in a hardware lockbox).
//! * [`server`] — the coalition server `P`: reference monitor combining
//!   signature verification with the §4.3 authorization protocol, plus an
//!   audit log. Supports a revocation-aware verification cache ([`cache`])
//!   and multi-worker batch verification.
//! * [`request`] — joint access requests: the requestor/co-signer assembly
//!   of Figure 2(b).
//! * [`scenario`] — one-call construction of the full Figure 1 scenario.
//! * [`dynamics`] — coalition joins/leaves: re-keying the AA and mass
//!   revocation/re-issue (§6).
//! * [`availability`] — m-of-n availability analysis (§3.3, experiment E6).
//! * [`liability`] — trust-liability attack simulation, Case I vs Case II
//!   (§2.2, experiment E7).
//! * [`replication`] — primary→replica WAL log shipping over `jaap-net`
//!   with fencing terms, snapshot + tail catch-up, and failover by
//!   promoting a replica through the recovery replay path.
//! * [`concurrent`] — the read/write split: epoch-versioned immutable
//!   decision snapshots read lock-free by decision workers; all mutations
//!   through a single writer that publishes a new epoch.
//! * [`shard`] — `ShardedCoalition`: disjoint object/group namespaces
//!   partitioned across N concurrent shards, with cross-shard admission
//!   fan-out and per-shard instruments.
//! * `pool` — the scoped fan-out (`std::thread::scope`) behind
//!   `verify_batch` and the sharded decision batch.
//!
//! # Quickstart
//!
//! ```
//! use jaap_coalition::scenario::CoalitionBuilder;
//!
//! # fn main() -> Result<(), jaap_coalition::CoalitionError> {
//! let mut coalition = CoalitionBuilder::new()
//!     .domains(&["D1", "D2", "D3"])
//!     .key_bits(192)
//!     .seed(7)
//!     .build()?;
//!
//! // Figure 2(b): a write needs 2-of-3 user signatures.
//! let granted = coalition.request_write(&["User_D1", "User_D2"])?;
//! assert!(granted.granted);
//! let denied = coalition.request_write(&["User_D1"])?;
//! assert!(!denied.granted);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod aa;
pub mod availability;
pub mod cache;
pub mod concurrent;
pub mod domain;
pub mod dynamics;
mod journal;
pub mod liability;
mod pool;
pub mod replication;
pub mod request;
pub mod scenario;
pub mod server;
pub mod shard;

use jaap_crypto::CryptoError;
use jaap_pki::PkiError;

/// Errors raised by coalition operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoalitionError {
    /// Underlying cryptography failed.
    Crypto(CryptoError),
    /// Certificate machinery failed.
    Pki(PkiError),
    /// Coalition-level misconfiguration (unknown user, missing domain, ...).
    Config(String),
    /// The durable journal failed (storage error, undecodable record).
    Journal(String),
    /// The persistent certificate store failed.
    Store(String),
    /// The server is fail-stopped: a durability-path write (journal append
    /// or cert-store put) failed after possibly reaching the medium, so
    /// in-memory state can no longer be trusted to match the durable log.
    /// Sticky until [`server::CoalitionServer::recover`] replays the
    /// durable prefix into a fresh server (fsyncgate semantics: a failed
    /// fsync is never retried).
    JournalPoisoned(String),
}

impl core::fmt::Display for CoalitionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CoalitionError::Crypto(e) => write!(f, "crypto: {e}"),
            CoalitionError::Pki(e) => write!(f, "pki: {e}"),
            CoalitionError::Config(m) => write!(f, "configuration: {m}"),
            CoalitionError::Journal(m) => write!(f, "journal: {m}"),
            CoalitionError::Store(m) => write!(f, "store: {m}"),
            CoalitionError::JournalPoisoned(m) => {
                write!(f, "server poisoned (recover() to resume): {m}")
            }
        }
    }
}

impl std::error::Error for CoalitionError {}

impl From<CryptoError> for CoalitionError {
    fn from(e: CryptoError) -> Self {
        CoalitionError::Crypto(e)
    }
}

impl From<PkiError> for CoalitionError {
    fn from(e: PkiError) -> Self {
        CoalitionError::Pki(e)
    }
}

impl From<jaap_store::StoreError> for CoalitionError {
    fn from(e: jaap_store::StoreError) -> Self {
        CoalitionError::Store(e.to_string())
    }
}

impl From<jaap_wal::WalError> for CoalitionError {
    fn from(e: jaap_wal::WalError) -> Self {
        CoalitionError::Journal(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_conversions_and_display() {
        let e: CoalitionError = CryptoError::SelfCheckFailed.into();
        assert!(e.to_string().starts_with("crypto:"));
        let e: CoalitionError = PkiError::UnknownIssuer("X".into()).into();
        assert!(e.to_string().starts_with("pki:"));
        assert!(CoalitionError::Config("bad".into())
            .to_string()
            .contains("bad"));
    }
}
