//! A small write-ahead journal, used by the coalition server to make its
//! belief state crash-recoverable.
//!
//! * [`frame`] — the on-disk record format: `magic || version || term ||
//!   len || checksum || payload`, with a recovery parser that stops at the
//!   first torn or corrupt record instead of replaying garbage, and a
//!   strict, zero-copy replication decoder ([`decode_frames`]) that turns
//!   defects into typed errors instead of silent truncation.
//! * [`store`] — the [`JournalStore`] byte-store abstraction with an
//!   in-memory backend ([`MemStore`], shared buffer so a "crashed" owner's
//!   bytes survive), a file backend ([`FileStore`], durability governed by
//!   [`SyncPolicy`]), and a [`TeeStore`] that mirrors every write into a
//!   [`LogOutbox`] so a replication layer can ship it.
//! * [`fault`] — seeded torn-write / bit-flip / short-read injection in
//!   the style of `jaap_net::fault`, for chaos-testing recovery.
//! * [`journal`] — the [`Journal`]: append framed records, rewrite the log
//!   from a snapshot, and replay with tail-truncation reporting.
//!
//! The layer is deliberately payload-agnostic: records are opaque byte
//! strings. The coalition crate defines what goes inside them.

#![forbid(unsafe_code)]

pub mod fault;
pub mod frame;
pub mod journal;
pub mod store;

pub use fault::{FaultKind, FaultStats, FaultyStore, StoreFaultPlan};
pub use frame::{
    check_log_version, decode_frames, frame_record, frame_record_with_term, parse_log, Frame,
    Frames, ParsedLog, Tail, FORMAT_VERSION,
};
pub use journal::{Journal, JournalStats, Replay};
pub use store::{FileStore, JournalStore, LogOutbox, MemStore, SyncPolicy, TeeEvent, TeeStore};

/// Errors raised by the journal layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// The backing store failed (I/O error, lock failure, ...).
    Io(String),
    /// A fault plan or journal parameter is out of range.
    InvalidPlan(String),
    /// A shipped frame was written by an incompatible format version.
    IncompatibleVersion {
        /// The version byte found in the frame.
        found: u8,
        /// The version this build supports.
        supported: u8,
    },
    /// A shipped frame failed strict decoding (torn, misframed, bit rot).
    Corrupt(String),
}

impl core::fmt::Display for WalError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WalError::Io(m) => write!(f, "journal store: {m}"),
            WalError::InvalidPlan(m) => write!(f, "invalid plan: {m}"),
            WalError::IncompatibleVersion { found, supported } => {
                write!(
                    f,
                    "incompatible frame format version {found} (supported: {supported})"
                )
            }
            WalError::Corrupt(m) => write!(f, "corrupt frame: {m}"),
        }
    }
}

impl std::error::Error for WalError {}
