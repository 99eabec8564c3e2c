//! Record framing: `magic(2) || version(1) || term(8, big-endian) ||
//! len(4, big-endian) || checksum(8, big-endian) || payload`. The checksum
//! is XXH64 of the payload seeded with the term, so one pass over the
//! payload covers both.
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
//!   append and tell the primary why. It borrows each payload from the
//!   input rather than copying it.
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
/// checksum-style truncation. Version 2 marked logs whose journaled
/// signatures use FDH v2 (`jaap_crypto::fdh`); version 3 replaces the
/// byte-wise FNV-1a checksum with XXH64 seeded by the term. An older log
/// cannot be checked under the new checksum, so it is refused up front
/// ([`check_log_version`]).
pub const FORMAT_VERSION: u8 = 3;

/// Bytes of framing before the payload: magic(2) + version(1) + term(8) +
/// len(4) + checksum(8).
pub const HEADER_LEN: usize = 2 + 1 + 8 + 4 + 8;

/// Upper bound on a single record's payload; a length field above this is
/// treated as corruption rather than an instruction to wait for 4 GiB.
pub const MAX_RECORD_LEN: usize = 16 * 1024 * 1024;

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

fn read64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

fn xxh_round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn xxh_merge(acc: u64, lane: u64) -> u64 {
    (acc ^ xxh_round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

/// XXH64 (Collet; the content checksum of zstd frames) of `bytes` under
/// `seed`. Not cryptographic — it detects torn writes and bit rot, not
/// adversaries (the payloads themselves carry signatures where
/// authenticity matters).
fn xxh64(bytes: &[u8], seed: u64) -> u64 {
    let mut rest = bytes;
    let mut h = if rest.len() >= 32 {
        let mut v = [
            seed.wrapping_add(P1).wrapping_add(P2),
            seed.wrapping_add(P2),
            seed,
            seed.wrapping_sub(P1),
        ];
        let mut stripes = rest.chunks_exact(32);
        for stripe in &mut stripes {
            for (lane, word) in v.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = xxh_round(*lane, read64(word));
            }
        }
        rest = stripes.remainder();
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.iter().fold(h, |h, &lane| xxh_merge(h, lane))
    } else {
        seed.wrapping_add(P5)
    };
    h = h.wrapping_add(bytes.len() as u64);
    while rest.len() >= 8 {
        h ^= xxh_round(0, read64(rest));
        h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        let word = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
        h ^= u64::from(word).wrapping_mul(P1);
        h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h ^= u64::from(b).wrapping_mul(P5);
        h = h.rotate_left(11).wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
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
    out.extend_from_slice(&xxh64(payload, term).to_be_bytes());
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

/// One decoded record frame, the replication-path view of a record. The
/// payload is borrowed from the decoded bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// Primary term the record was written under.
    pub term: u64,
    /// The record payload.
    pub payload: &'a [u8],
}

enum Step<'a> {
    Done,
    Frame { frame: Frame<'a>, next: usize },
    Bad { reason: &'static str },
    BadVersion { found: u8 },
}

fn step(bytes: &[u8], pos: usize) -> Step<'_> {
    if pos == bytes.len() {
        return Step::Done;
    }
    if bytes.len() - pos < HEADER_LEN {
        return Step::Bad {
            reason: "short header (torn write)",
        };
    }
    if bytes[pos..pos + 2] != MAGIC {
        return Step::Bad {
            reason: "bad magic",
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
            reason: "implausible record length",
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
            reason: "short payload (torn write)",
        };
    }
    let payload = &bytes[body_start..body_start + len];
    if xxh64(payload, term) != stored {
        return Step::Bad {
            reason: "checksum mismatch (bit rot)",
        };
    }
    Step::Frame {
        frame: Frame { term, payload },
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
                records.push(frame.payload.to_vec());
                terms.push(frame.term);
                pos = next;
                boundaries.push(pos);
            }
            Step::Bad { reason } => {
                break Tail::Truncated {
                    offset: pos,
                    reason: reason.to_string(),
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

/// Strictly walks a byte string that must consist of whole, valid frames
/// — the replication receive path. Unlike [`parse_log`] there is no
/// "replay the good prefix" posture: the first defect is yielded as an
/// error and ends the walk, so a caller that wants all-or-nothing stops
/// at the first `Err`.
///
/// Each item is [`WalError::IncompatibleVersion`] when a frame's version
/// byte differs from [`FORMAT_VERSION`], or [`WalError::Corrupt`] for
/// torn, misframed, or checksum-failing bytes.
#[must_use]
pub fn decode_frames(bytes: &[u8]) -> Frames<'_> {
    Frames { bytes, pos: 0 }
}

/// The iterator returned by [`decode_frames`].
#[derive(Debug, Clone)]
pub struct Frames<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Frames<'_> {
    /// Byte offset just past the last frame yielded (where the next one
    /// starts).
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = Result<Frame<'a>, WalError>;

    fn next(&mut self) -> Option<Self::Item> {
        let at = self.pos;
        let err = match step(self.bytes, at) {
            Step::Done => return None,
            Step::Frame { frame, next } => {
                self.pos = next;
                return Some(Ok(frame));
            }
            Step::Bad { reason } => WalError::Corrupt(format!("{reason} at byte {at}")),
            Step::BadVersion { found } => WalError::IncompatibleVersion {
                found,
                supported: FORMAT_VERSION,
            },
        };
        // A defect ends the walk: nothing past it is framed reliably.
        self.bytes = &self.bytes[..at];
        Some(Err(err))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_all(bytes: &[u8]) -> Result<Vec<Frame<'_>>, WalError> {
        decode_frames(bytes).collect()
    }

    #[test]
    fn xxh64_known_answers() {
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a", 0), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
        let hundred: Vec<u8> = (0..100).collect();
        assert_eq!(xxh64(&hundred, 0), 0x6AC1_E580_3216_6597);
    }

    #[test]
    fn xxh64_seed_changes_the_sum() {
        assert_ne!(xxh64(b"abc", 0), xxh64(b"abc", 1));
        assert_ne!(xxh64(b"", 5), xxh64(b"", 4));
    }

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
        let frames = decode_all(&log).expect("decode");
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].term, 3);
        assert_eq!(frames[1].payload, b"under-term-7");
    }

    #[test]
    fn decoder_reports_its_position_and_stops_at_the_first_defect() {
        let first = frame_record(b"first");
        let mut log = first.clone();
        log.extend_from_slice(&frame_record(b"second")[..9]);
        log.extend_from_slice(&frame_record(b"third"));
        let mut frames = decode_frames(&log);
        assert_eq!(frames.position(), 0);
        assert!(matches!(frames.next(), Some(Ok(f)) if f.payload == b"first"));
        assert_eq!(frames.position(), first.len());
        assert!(matches!(frames.next(), Some(Err(WalError::Corrupt(_)))));
        assert!(frames.next().is_none(), "a defect ends the walk");
        assert_eq!(frames.position(), first.len());
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
            assert!(decode_all(&log[..cut]).is_err(), "cut at {cut}");
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
    fn every_single_bit_flip_in_a_frame_is_detected() {
        let log = frame_record_with_term(9, b"a payload longer than one 32-byte stripe!!");
        for bit in 0..log.len() * 8 {
            let mut flipped = log.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(decode_all(&flipped).is_err(), "flip of bit {bit}");
            assert!(parse_log(&flipped).records.is_empty(), "flip of bit {bit}");
        }
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
            decode_all(&log),
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
        foreign[2] = FORMAT_VERSION - 1;
        assert_eq!(
            check_log_version(&foreign),
            Err(WalError::IncompatibleVersion {
                found: FORMAT_VERSION - 1,
                supported: FORMAT_VERSION,
            })
        );
        // Past the first frame a version byte is the tail's business.
        let second = frame_record(b"old").len();
        log[second + 2] = FORMAT_VERSION - 1;
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
        assert!(matches!(decode_all(&log), Err(WalError::Corrupt(_))));
    }

    #[test]
    fn empty_log_is_clean() {
        let parsed = parse_log(&[]);
        assert!(parsed.records.is_empty());
        assert_eq!(parsed.tail, Tail::Clean);
        assert_eq!(decode_all(&[]).expect("decode"), Vec::<Frame<'_>>::new());
    }
}
