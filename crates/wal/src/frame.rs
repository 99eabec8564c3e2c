//! Record framing: `magic(2) || version(1) || term(8, big-endian) ||
//! len(4, big-endian) || checksum(8, big-endian FNV-1a over term ||
//! payload) || payload`.
//!
//! Two readers consume this format with different failure postures:
//!
//! * [`parse_log`] is the *recovery* reader. It walks a local log front to
//!   back and stops at the first record that is short (torn write), has a
//!   bad magic or format version, an implausible length, or a checksum
//!   mismatch (bit rot). Everything before the bad record is replayable;
//!   everything from it on is reported as a truncated tail — recovery must
//!   drop it, never replay it.
//! * [`decode_frames`] is the *replication* reader. A replica receiving
//!   shipped frames must not silently trim: a malformed or
//!   version-incompatible frame is a typed error ([`WalError::Corrupt`],
//!   [`WalError::IncompatibleVersion`]) so the replica can refuse the
//!   append and tell the primary why.
//!
//! The `term` field records the primary term a record was written under
//! (provenance). Fencing decisions are made on *message* terms by the
//! replication layer; the frame term lets a recovered log show which
//! regime produced each record.

use crate::WalError;

/// Marks the start of every record ("JW").
pub const MAGIC: [u8; 2] = [0x4A, 0x57];

/// Current frame format version. A replica rejects frames whose version
/// byte differs — an incompatible primary must not be able to corrupt a
/// replica's log, and the failure must be a typed error, not a
/// checksum-style truncation. Version 2 marks logs whose journaled
/// signatures use FDH v2 (`jaap_crypto::fdh`); a version-1 log's
/// signatures no longer verify, so it is refused up front
/// ([`check_log_version`]).
pub const FORMAT_VERSION: u8 = 2;

/// Bytes of framing before the payload: magic(2) + version(1) + term(8) +
/// len(4) + checksum(8).
pub const HEADER_LEN: usize = 2 + 1 + 8 + 4 + 8;

/// Upper bound on a single record's payload; a length field above this is
/// treated as corruption rather than an instruction to wait for 4 GiB.
pub const MAX_RECORD_LEN: usize = 16 * 1024 * 1024;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv64(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// 64-bit FNV-1a over `bytes`. Not cryptographic — it detects torn writes
/// and bit rot, not adversaries (the payloads themselves carry signatures
/// where authenticity matters).
#[must_use]
pub fn checksum64(bytes: &[u8]) -> u64 {
    fnv64(FNV_OFFSET, bytes)
}

/// The frame checksum covers the term as well as the payload, so a bit
/// flip in the term field is caught like any other corruption.
fn record_checksum(term: u64, payload: &[u8]) -> u64 {
    fnv64(fnv64(FNV_OFFSET, &term.to_be_bytes()), payload)
}

/// Frames one payload under primary term `term`.
#[must_use]
pub fn frame_record_with_term(term: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(FORMAT_VERSION);
    out.extend_from_slice(&term.to_be_bytes());
    out.extend_from_slice(
        &u32::try_from(payload.len())
            .expect("record too long")
            .to_be_bytes(),
    );
    out.extend_from_slice(&record_checksum(term, payload).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// Frames one payload under term 0 (unreplicated logs).
#[must_use]
pub fn frame_record(payload: &[u8]) -> Vec<u8> {
    frame_record_with_term(0, payload)
}

/// How the log ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tail {
    /// The log ends exactly at a record boundary.
    Clean,
    /// The log ends in a torn or corrupt record starting at `offset`.
    Truncated {
        /// Byte offset of the first unreplayable record.
        offset: usize,
        /// Human-readable reason (short read, bad magic, checksum, ...).
        reason: String,
    },
}

/// A parsed log: the valid payloads, their terms, the end offset of each
/// valid record (so crash harnesses can cut the log at every record
/// boundary), and how the tail ended.
#[derive(Debug, Clone)]
pub struct ParsedLog {
    /// Valid record payloads, in append order.
    pub records: Vec<Vec<u8>>,
    /// `terms[i]` is the primary term record `i` was written under.
    pub terms: Vec<u64>,
    /// `boundaries[i]` is the byte offset just past record `i`.
    pub boundaries: Vec<usize>,
    /// Tail status.
    pub tail: Tail,
}

impl ParsedLog {
    /// Bytes of unreplayable tail, 0 when clean.
    #[must_use]
    pub fn truncated_bytes(&self, total_len: usize) -> usize {
        match &self.tail {
            Tail::Clean => 0,
            Tail::Truncated { offset, .. } => total_len.saturating_sub(*offset),
        }
    }
}

/// One decoded record frame, the replication-path view of a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Primary term the record was written under.
    pub term: u64,
    /// The record payload.
    pub payload: Vec<u8>,
}

enum Step {
    Done,
    Frame { frame: Frame, next: usize },
    Bad { reason: String },
    BadVersion { found: u8 },
}

fn step(bytes: &[u8], pos: usize) -> Step {
    if pos == bytes.len() {
        return Step::Done;
    }
    if bytes.len() - pos < HEADER_LEN {
        return Step::Bad {
            reason: "short header (torn write)".to_string(),
        };
    }
    if bytes[pos..pos + 2] != MAGIC {
        return Step::Bad {
            reason: "bad magic".to_string(),
        };
    }
    let version = bytes[pos + 2];
    if version != FORMAT_VERSION {
        return Step::BadVersion { found: version };
    }
    let term = u64::from_be_bytes(bytes[pos + 3..pos + 11].try_into().expect("8 bytes"));
    let len = u32::from_be_bytes(bytes[pos + 11..pos + 15].try_into().expect("4 bytes")) as usize;
    if len > MAX_RECORD_LEN {
        return Step::Bad {
            reason: "implausible record length".to_string(),
        };
    }
    let stored = u64::from_be_bytes(
        bytes[pos + 15..pos + HEADER_LEN]
            .try_into()
            .expect("8 bytes"),
    );
    let body_start = pos + HEADER_LEN;
    if bytes.len() - body_start < len {
        return Step::Bad {
            reason: "short payload (torn write)".to_string(),
        };
    }
    let payload = &bytes[body_start..body_start + len];
    if record_checksum(term, payload) != stored {
        return Step::Bad {
            reason: "checksum mismatch (bit rot)".to_string(),
        };
    }
    Step::Frame {
        frame: Frame {
            term,
            payload: payload.to_vec(),
        },
        next: body_start + len,
    }
}

/// Refuses a log written under another format version. A log is written
/// under one version, so a first frame carrying another version byte
/// means the whole log is foreign: recovery must refuse it, not trim it to
/// nothing as if it were a torn tail. A later frame with another version
/// byte stays a corrupt tail for [`parse_log`].
///
/// # Errors
///
/// [`WalError::IncompatibleVersion`] when the first frame's magic matches
/// and its version byte differs from [`FORMAT_VERSION`].
pub fn check_log_version(bytes: &[u8]) -> Result<(), WalError> {
    match bytes {
        [m0, m1, found, ..] if [*m0, *m1] == MAGIC && *found != FORMAT_VERSION => {
            Err(WalError::IncompatibleVersion {
                found: *found,
                supported: FORMAT_VERSION,
            })
        }
        _ => Ok(()),
    }
}

/// Parses a local log, stopping at the first torn or corrupt record.
#[must_use]
pub fn parse_log(bytes: &[u8]) -> ParsedLog {
    let mut records = Vec::new();
    let mut terms = Vec::new();
    let mut boundaries = Vec::new();
    let mut pos = 0usize;
    let tail = loop {
        match step(bytes, pos) {
            Step::Done => break Tail::Clean,
            Step::Frame { frame, next } => {
                records.push(frame.payload);
                terms.push(frame.term);
                pos = next;
                boundaries.push(pos);
            }
            Step::Bad { reason } => {
                break Tail::Truncated {
                    offset: pos,
                    reason,
                }
            }
            Step::BadVersion { found } => {
                break Tail::Truncated {
                    offset: pos,
                    reason: format!("unsupported format version {found}"),
                }
            }
        }
    };
    ParsedLog {
        records,
        terms,
        boundaries,
        tail,
    }
}

/// Strictly decodes a byte string that must consist of whole, valid
/// frames — the replication receive path. Unlike [`parse_log`] there is
/// no "replay the good prefix" posture: any defect fails the whole call.
///
/// # Errors
///
/// [`WalError::IncompatibleVersion`] when a frame's version byte differs
/// from [`FORMAT_VERSION`]; [`WalError::Corrupt`] for torn, misframed, or
/// checksum-failing bytes.
pub fn decode_frames(bytes: &[u8]) -> Result<Vec<Frame>, WalError> {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    loop {
        match step(bytes, pos) {
            Step::Done => return Ok(frames),
            Step::Frame { frame, next } => {
                frames.push(frame);
                pos = next;
            }
            Step::Bad { reason } => {
                return Err(WalError::Corrupt(format!("{reason} at byte {pos}")))
            }
            Step::BadVersion { found } => {
                return Err(WalError::IncompatibleVersion {
                    found,
                    supported: FORMAT_VERSION,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_multiple_records() {
        let mut log = Vec::new();
        for payload in [b"one".as_slice(), b"two-longer".as_slice(), b"".as_slice()] {
            log.extend_from_slice(&frame_record(payload));
        }
        let parsed = parse_log(&log);
        assert_eq!(parsed.tail, Tail::Clean);
        assert_eq!(parsed.records.len(), 3);
        assert_eq!(parsed.records[1], b"two-longer");
        assert_eq!(parsed.terms, vec![0, 0, 0]);
        assert_eq!(parsed.boundaries.len(), 3);
        assert_eq!(*parsed.boundaries.last().expect("boundary"), log.len());
    }

    #[test]
    fn terms_roundtrip_through_parse_and_decode() {
        let mut log = frame_record_with_term(3, b"under-term-3");
        log.extend_from_slice(&frame_record_with_term(7, b"under-term-7"));
        let parsed = parse_log(&log);
        assert_eq!(parsed.tail, Tail::Clean);
        assert_eq!(parsed.terms, vec![3, 7]);
        let frames = decode_frames(&log).expect("decode");
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].term, 3);
        assert_eq!(frames[1].payload, b"under-term-7");
    }

    #[test]
    fn torn_tail_detected_at_every_cut() {
        let mut log = Vec::new();
        log.extend_from_slice(&frame_record(b"alpha"));
        let keep = log.len();
        log.extend_from_slice(&frame_record(b"beta"));
        for cut in keep + 1..log.len() {
            let parsed = parse_log(&log[..cut]);
            assert_eq!(parsed.records.len(), 1, "cut at {cut}");
            assert!(matches!(parsed.tail, Tail::Truncated { offset, .. } if offset == keep));
            assert!(decode_frames(&log[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn bit_flip_in_payload_detected() {
        let mut log = frame_record(b"sensitive payload");
        let last = log.len() - 1;
        log[last] ^= 0x40;
        let parsed = parse_log(&log);
        assert!(parsed.records.is_empty());
        assert!(
            matches!(parsed.tail, Tail::Truncated { ref reason, .. } if reason.contains("checksum"))
        );
    }

    #[test]
    fn bit_flip_in_term_detected() {
        let mut log = frame_record_with_term(5, b"payload");
        log[4] ^= 0x01; // inside the term field; checksum covers it
        let parsed = parse_log(&log);
        assert!(parsed.records.is_empty());
        assert!(
            matches!(parsed.tail, Tail::Truncated { ref reason, .. } if reason.contains("checksum"))
        );
    }

    #[test]
    fn bit_flip_in_length_detected() {
        let mut log = frame_record(b"x");
        log[11] = 0xFF; // implausible length
        let parsed = parse_log(&log);
        assert!(parsed.records.is_empty());
        assert!(matches!(parsed.tail, Tail::Truncated { .. }));
    }

    #[test]
    fn unknown_version_is_typed_for_replicas_truncation_for_recovery() {
        let mut log = frame_record(b"future");
        log[2] = FORMAT_VERSION + 1;
        let parsed = parse_log(&log);
        assert!(parsed.records.is_empty());
        assert!(
            matches!(parsed.tail, Tail::Truncated { ref reason, .. } if reason.contains("version"))
        );
        assert_eq!(
            decode_frames(&log),
            Err(WalError::IncompatibleVersion {
                found: FORMAT_VERSION + 1,
                supported: FORMAT_VERSION,
            })
        );
    }

    #[test]
    fn log_from_another_format_version_is_refused_whole() {
        let mut log = frame_record(b"old");
        log.extend_from_slice(&frame_record(b"older"));
        assert_eq!(check_log_version(&log), Ok(()));
        assert_eq!(check_log_version(&[]), Ok(()));
        let mut foreign = log.clone();
        foreign[2] = 1;
        assert_eq!(
            check_log_version(&foreign),
            Err(WalError::IncompatibleVersion {
                found: 1,
                supported: FORMAT_VERSION,
            })
        );
        // Past the first frame a version byte is the tail's business.
        let second = frame_record(b"old").len();
        log[second + 2] = 1;
        assert_eq!(check_log_version(&log), Ok(()));
    }

    #[test]
    fn corrupt_record_shadows_later_good_records() {
        let mut log = frame_record(b"good");
        let mut bad = frame_record(b"bad");
        bad[HEADER_LEN] ^= 1;
        log.extend_from_slice(&bad);
        log.extend_from_slice(&frame_record(b"unreachable"));
        let parsed = parse_log(&log);
        assert_eq!(parsed.records.len(), 1);
        assert!(matches!(parsed.tail, Tail::Truncated { .. }));
        assert!(matches!(decode_frames(&log), Err(WalError::Corrupt(_))));
    }

    #[test]
    fn empty_log_is_clean() {
        let parsed = parse_log(&[]);
        assert!(parsed.records.is_empty());
        assert_eq!(parsed.tail, Tail::Clean);
        assert_eq!(decode_frames(&[]).expect("decode"), Vec::<Frame>::new());
    }
}
