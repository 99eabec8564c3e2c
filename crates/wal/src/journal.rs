//! The journal proper: framed appends, snapshot rewrites, and replay with
//! truncate-don't-replay tail handling.

use crate::frame::{self, Tail};
use crate::store::JournalStore;
use crate::WalError;

/// Monotone journal activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records appended.
    pub appends: u64,
    /// Framed bytes appended.
    pub bytes_appended: u64,
    /// Snapshot rewrites.
    pub rewrites: u64,
    /// Records written by rewrites.
    pub records_rewritten: u64,
}

/// A replayed log.
#[derive(Debug)]
pub struct Replay {
    /// Valid payloads in append order.
    pub records: Vec<Vec<u8>>,
    /// Primary term each valid record was written under.
    pub terms: Vec<u64>,
    /// Byte offset just past each valid record.
    pub boundaries: Vec<usize>,
    /// Total bytes scanned.
    pub bytes_scanned: u64,
    /// Why (and where) the tail was cut, `None` for a clean log.
    pub truncation: Option<String>,
    /// Unreplayable tail bytes dropped, 0 for a clean log.
    pub truncated_bytes: u64,
}

/// An append-mostly journal over a [`JournalStore`].
#[derive(Debug)]
pub struct Journal {
    store: Box<dyn JournalStore>,
    stats: JournalStats,
    term: u64,
}

impl Journal {
    /// Wraps a store. Records are stamped with term 0 until
    /// [`Journal::set_term`] raises it.
    #[must_use]
    pub fn new(store: Box<dyn JournalStore>) -> Self {
        Journal {
            store,
            stats: JournalStats::default(),
            term: 0,
        }
    }

    /// Sets the primary term stamped into every frame written from now on.
    pub fn set_term(&mut self, term: u64) {
        self.term = term;
    }

    /// The term currently stamped into new frames.
    #[must_use]
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Frames and appends one payload; returns the framed length.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] if the store fails.
    pub fn append(&mut self, payload: &[u8]) -> Result<usize, WalError> {
        let framed = frame::frame_record_with_term(self.term, payload);
        self.store.append(&framed)?;
        self.stats.appends += 1;
        self.stats.bytes_appended += framed.len() as u64;
        Ok(framed.len())
    }

    /// Replaces the log with `payloads` (snapshot compaction).
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] if the store fails.
    pub fn rewrite(&mut self, payloads: &[Vec<u8>]) -> Result<(), WalError> {
        let mut bytes = Vec::new();
        for p in payloads {
            bytes.extend_from_slice(&frame::frame_record_with_term(self.term, p));
        }
        self.store.reset(&bytes)?;
        self.stats.rewrites += 1;
        self.stats.records_rewritten += payloads.len() as u64;
        Ok(())
    }

    /// Reads and parses the log. When the tail is torn or corrupt, the
    /// store is trimmed back to the last valid record boundary so later
    /// appends continue a well-formed log, and the cut is reported.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] if the store fails;
    /// [`WalError::IncompatibleVersion`], with the store left untouched,
    /// if the log was written under another format version.
    pub fn replay(&mut self) -> Result<Replay, WalError> {
        let bytes = self.store.read()?;
        frame::check_log_version(&bytes)?;
        let parsed = frame::parse_log(&bytes);
        let truncated_bytes = parsed.truncated_bytes(bytes.len()) as u64;
        let truncation = match &parsed.tail {
            Tail::Clean => None,
            Tail::Truncated { offset, reason } => {
                self.store.reset(&bytes[..*offset])?;
                Some(format!("{reason} at byte {offset}"))
            }
        };
        Ok(Replay {
            records: parsed.records,
            terms: parsed.terms,
            boundaries: parsed.boundaries,
            bytes_scanned: bytes.len() as u64,
            truncation,
            truncated_bytes,
        })
    }

    /// Activity counters.
    #[must_use]
    pub fn stats(&self) -> JournalStats {
        self.stats
    }

    /// Current store length in bytes.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] if the store fails.
    pub fn store_len(&self) -> Result<u64, WalError> {
        self.store.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    #[test]
    fn append_then_replay_roundtrips() {
        let mut j = Journal::new(Box::new(MemStore::new()));
        j.append(b"a").expect("append");
        j.append(b"bb").expect("append");
        let replay = j.replay().expect("replay");
        assert_eq!(replay.records, vec![b"a".to_vec(), b"bb".to_vec()]);
        assert!(replay.truncation.is_none());
        assert_eq!(j.stats().appends, 2);
    }

    #[test]
    fn term_is_stamped_into_frames() {
        let mut j = Journal::new(Box::new(MemStore::new()));
        j.append(b"old-regime").expect("append");
        j.set_term(4);
        j.append(b"new-regime").expect("append");
        let replay = j.replay().expect("replay");
        assert_eq!(replay.terms, vec![0, 4]);
        j.rewrite(&[b"compacted".to_vec()]).expect("rewrite");
        let replay = j.replay().expect("replay");
        assert_eq!(replay.terms, vec![4]);
    }

    #[test]
    fn rewrite_compacts_log() {
        let store = MemStore::new();
        let mut j = Journal::new(Box::new(store.clone()));
        for _ in 0..10 {
            j.append(&[0u8; 100]).expect("append");
        }
        let before = store.snapshot().len();
        j.rewrite(&[b"compact".to_vec()]).expect("rewrite");
        assert!(store.snapshot().len() < before);
        let replay = j.replay().expect("replay");
        assert_eq!(replay.records, vec![b"compact".to_vec()]);
        assert_eq!(j.stats().rewrites, 1);
    }

    #[test]
    fn replay_trims_torn_tail_from_store() {
        let store = MemStore::new();
        {
            let mut j = Journal::new(Box::new(store.clone()));
            j.append(b"keep").expect("append");
        }
        let keep_len = store.snapshot().len();
        let mut raw = store.clone();
        use crate::store::JournalStore as _;
        raw.append(&frame::frame_record(b"torn")[..7])
            .expect("torn tail");
        let mut j = Journal::new(Box::new(store.clone()));
        let replay = j.replay().expect("replay");
        assert_eq!(replay.records, vec![b"keep".to_vec()]);
        assert!(replay.truncation.is_some());
        assert!(replay.truncated_bytes > 0);
        // The store itself was trimmed back to the boundary.
        assert_eq!(store.snapshot().len(), keep_len);
        let again = j.replay().expect("replay again");
        assert!(again.truncation.is_none());
    }

    #[test]
    fn replay_refuses_a_log_from_another_format_version_untouched() {
        let mut old = frame::frame_record(b"written under the previous version");
        old[2] = frame::FORMAT_VERSION - 1;
        let store = MemStore::from_bytes(old.clone());
        let mut j = Journal::new(Box::new(store.clone()));
        assert_eq!(
            j.replay().map(|r| r.records),
            Err(WalError::IncompatibleVersion {
                found: frame::FORMAT_VERSION - 1,
                supported: frame::FORMAT_VERSION,
            })
        );
        assert_eq!(store.snapshot(), old, "a foreign log is not trimmed");
    }
}
