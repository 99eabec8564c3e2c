//! Typed messages for WAL log shipping between a coalition primary and
//! its replicas.
//!
//! The net layer treats frames as opaque bytes — decoding and applying
//! them is the coalition replication module's job. What *is* modeled here
//! is the addressing and fencing vocabulary of the protocol:
//!
//! * every message carries the sender's **term** (the fencing epoch: a
//!   replica rejects traffic from a primary whose term is below the
//!   highest it has seen);
//! * log positions are addressed as `(gen, offset)` — `gen` is the log
//!   generation, bumped each time the primary's log is rewritten
//!   wholesale (snapshot compaction, bootstrap), and `offset` counts
//!   records appended since that rewrite. A replica on the wrong
//!   generation must be re-seeded with a [`ReplMessage::Snapshot`] before
//!   any [`ReplMessage::Append`] can land;
//! * an [`ReplMessage::Append`] is a *window*: a contiguous run of `count`
//!   framed records starting at `offset`, shipped as one byte string and
//!   answered by one [`ReplMessage::Ack`] or [`ReplMessage::Reject`] for
//!   the whole window.

/// A replication protocol message shipped over an `Endpoint`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplMessage {
    /// Primary → replica: `count` contiguous framed records, the first
    /// at `(gen, offset)`.
    Append {
        /// The shipping primary's term.
        term: u64,
        /// Log generation the records belong to.
        gen: u64,
        /// Record index of the window's first frame within the generation
        /// (0-based).
        offset: u64,
        /// The framed records back to back, exactly as stored locally.
        frames: Vec<u8>,
        /// How many frames `frames` holds.
        count: u64,
    },
    /// Primary → replica: a full log image starting generation `gen`
    /// (late-joiner bootstrap or post-compaction catch-up).
    Snapshot {
        /// The shipping primary's term.
        term: u64,
        /// Generation this image begins.
        gen: u64,
        /// The full framed log image.
        image: Vec<u8>,
    },
    /// Replica → primary: everything below `(gen, next_offset)` is
    /// durably applied. One per delivered window or snapshot.
    Ack {
        /// The replica's current term (a primary seeing a higher term
        /// here learns it has been deposed).
        term: u64,
        /// The replica's current generation.
        gen: u64,
        /// Next record offset the replica expects.
        next_offset: u64,
    },
    /// Replica → primary: the message was refused.
    Reject {
        /// The replica's current term.
        term: u64,
        /// Why the message was refused.
        reason: RejectReason,
    },
}

impl ReplMessage {
    /// The sender's term, whatever the message kind.
    #[must_use]
    pub fn term(&self) -> u64 {
        match self {
            ReplMessage::Append { term, .. }
            | ReplMessage::Snapshot { term, .. }
            | ReplMessage::Ack { term, .. }
            | ReplMessage::Reject { term, .. } => *term,
        }
    }
}

/// Why a replica refused a replication message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The sender's term is below the highest this replica has seen —
    /// the fencing rule: a deposed primary must not mutate replicas.
    StaleTerm {
        /// The replica's highest observed term.
        have: u64,
    },
    /// The message addressed a position the replica does not hold; the
    /// reply carries where the replica actually is so the primary can
    /// rewind or re-seed.
    OutOfSync {
        /// The replica's current generation.
        gen: u64,
        /// Next record offset the replica expects.
        next_offset: u64,
    },
    /// A shipped frame was written by an incompatible format version.
    IncompatibleFormat {
        /// Version byte found in the frame.
        found: u8,
        /// Version the replica supports.
        supported: u8,
    },
    /// The shipped bytes failed strict frame decoding, or did not hold
    /// the frames the message claimed.
    Corrupt {
        /// Human-readable defect description.
        detail: String,
    },
}

impl core::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RejectReason::StaleTerm { have } => {
                write!(f, "stale term (replica has seen term {have})")
            }
            RejectReason::OutOfSync { gen, next_offset } => {
                write!(
                    f,
                    "out of sync (replica at gen {gen}, offset {next_offset})"
                )
            }
            RejectReason::IncompatibleFormat { found, supported } => {
                write!(
                    f,
                    "incompatible frame format {found} (supported: {supported})"
                )
            }
            RejectReason::Corrupt { detail } => write!(f, "corrupt frame: {detail}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_accessor_covers_all_variants() {
        let msgs = [
            ReplMessage::Append {
                term: 1,
                gen: 0,
                offset: 0,
                frames: vec![],
                count: 0,
            },
            ReplMessage::Snapshot {
                term: 2,
                gen: 1,
                image: vec![],
            },
            ReplMessage::Ack {
                term: 3,
                gen: 1,
                next_offset: 4,
            },
            ReplMessage::Reject {
                term: 4,
                reason: RejectReason::StaleTerm { have: 9 },
            },
        ];
        assert_eq!(
            msgs.iter().map(ReplMessage::term).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
    }

    #[test]
    fn reject_reasons_render() {
        let r = RejectReason::OutOfSync {
            gen: 2,
            next_offset: 7,
        };
        assert!(r.to_string().contains("gen 2"));
        assert!(RejectReason::StaleTerm { have: 5 }
            .to_string()
            .contains("term 5"));
    }
}
