//! Replicated coalition server: WAL log shipping, fencing terms, and
//! failover (DESIGN §5f).
//!
//! §5e made a single server crash-recoverable; this module makes the
//! *service* survive the primary. The write-ahead journal is already a
//! deterministic record of every belief-changing event, so replication is
//! log shipping: a [`TeeStore`](jaap_wal::TeeStore) writes the primary's
//! journal into one shared [`LogOutbox`], a [`Primary`] cuts typed
//! [`ReplMessage`]s straight from it over `jaap-net` (inheriting
//! `FaultPlan`'s seeded drop/duplicate/delay/partition adversaries as the
//! chaos harness) and trims what every replica has acknowledged, and
//! each [`Replica`] validates and appends them to its own store. Failover
//! is the recovery path from §5e pointed at a replica's store:
//! [`Replica::promote`] replays the shipped log into a fresh
//! [`CoalitionServer`] under a higher term.
//!
//! Invariants:
//!
//! * **Positions.** A log position is `(gen, offset)`: `gen` bumps on
//!   every wholesale rewrite of the primary's log (bootstrap snapshot,
//!   compaction), `offset` counts records appended since. A replica on a
//!   stale generation is re-seeded with a full snapshot image, then
//!   follows the tail — late joiners and laggards use the same path.
//! * **Fencing.** Every message carries the sender's term. A replica
//!   tracks the highest term it has seen and rejects anything below it
//!   ([`RejectReason::StaleTerm`], counted and exported as
//!   `server.repl.{i}.rejected_stale_term`), so a deposed primary cannot
//!   mutate replicas that have heard from its successor. A primary that
//!   sees a higher term in any reply marks itself deposed.
//! * **Windows.** An append ships a contiguous run of frames as one
//!   message and is answered by one ack. The replica strictly decodes the
//!   whole window in one pass ([`jaap_wal::decode_frames`]) before any of
//!   it touches the log: one corrupt, version-skewed or over-term frame
//!   refuses the whole window with a typed rejection, never a silent
//!   truncation or a partial append.
//! * **Idempotence.** A window wholly below the replica's watermark is
//!   re-acked, not re-applied; one that straddles the watermark applies
//!   only its unseen suffix; gaps are rejected with the replica's actual
//!   position so the primary rewinds.

use std::sync::Arc;
use std::time::Duration;

use jaap_net::{
    Endpoint, Envelope, FaultPlan, Network, NetworkHandle, PartyId, RejectReason, ReplMessage,
};
use jaap_obs::{Counter, Gauge, MetricsRegistry};
use jaap_pki::TrustStore;
use jaap_wal::{JournalStore, LogOutbox, MemStore, WalError};

use crate::server::{CoalitionServer, RecoveryReport};
use crate::CoalitionError;

/// The endpoints and handle of a freshly built replication mesh:
/// the primary's endpoint, one endpoint per replica, and the network
/// handle for stats and transcript access.
type MeshParts = (
    Endpoint<ReplMessage>,
    Vec<Endpoint<ReplMessage>>,
    NetworkHandle,
);

/// Most frames one `Append` window carries. A sync round ships a
/// replica's whole backlog, in as many windows as that takes.
pub const DEFAULT_SHIP_WINDOW: usize = 32;

/// The loss timeout of a sync round: how long a drain waits for a message
/// it still expects (dropped, partitioned away, or delayed) before giving
/// up on it until the next round resends. A round whose expected messages
/// and replies have all arrived ends without waiting on it.
const POLL: Duration = Duration::from_millis(1);

/// Monotone primary-side replication counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrimaryStats {
    /// Messages shipped (append windows + snapshots, before network
    /// faults).
    pub shipped: u64,
    /// Records newly acknowledged by replicas (one per record per replica).
    pub acked_records: u64,
    /// Snapshot catch-up shipments (late join, lag, or post-compaction).
    pub catchups: u64,
    /// Replies that fenced this primary off as deposed.
    pub stale_term_rejections: u64,
}

/// Monotone replica-side replication counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Records appended to the local log.
    pub applied: u64,
    /// Snapshot images installed.
    pub snapshots_installed: u64,
    /// Deliveries re-acked without re-applying: one per already-held
    /// frame of an append window, one per duplicate snapshot.
    pub duplicates: u64,
    /// Messages rejected under the fencing rule.
    pub(crate) rejected_stale_term: u64,
    /// Frames rejected for format-version incompatibility.
    pub(crate) rejected_incompatible: u64,
    /// Messages rejected for addressing a position this replica is not at.
    pub(crate) rejected_out_of_sync: u64,
}

/// Pre-resolved primary-side instruments for one replica, following the
/// resolve-once convention from §5c.
#[derive(Debug, Clone)]
struct ReplicaInstruments {
    shipped: Arc<Counter>,
    acked: Arc<Counter>,
    lag: Arc<Gauge>,
    catchups: Arc<Counter>,
}

/// What the primary believes one replica holds.
#[derive(Debug, Clone, Copy)]
struct Progress {
    gen: u64,
    next_offset: u64,
}

/// The shipping side: cuts protocol messages for each replica's lag
/// straight from the [`LogOutbox`] the primary server's
/// [`TeeStore`](jaap_wal::TeeStore) writes, and trims that log once every
/// replica has acknowledged a frame. Transport-agnostic —
/// [`ReplicationNet`] pumps it over a `jaap-net` mesh, and tests can
/// drive it directly.
#[derive(Debug)]
pub struct Primary {
    term: u64,
    log: LogOutbox,
    progress: Vec<Progress>,
    deposed_by: Option<u64>,
    stats: PrimaryStats,
    instruments: Vec<ReplicaInstruments>,
}

impl Primary {
    /// A primary at `term` shipping to `replicas` followers from `log`
    /// (the one the tee on the primary server's journal store writes).
    #[must_use]
    pub fn new(term: u64, replicas: usize, log: LogOutbox) -> Self {
        Primary {
            term,
            log,
            progress: vec![
                Progress {
                    gen: 0,
                    next_offset: 0,
                };
                replicas
            ],
            deposed_by: None,
            stats: PrimaryStats::default(),
            instruments: Vec::new(),
        }
    }

    /// Resolves per-replica `server.repl.{i}.*` instruments into
    /// `registry` (resolve-once; the ship path then only increments).
    pub(crate) fn set_metrics(&mut self, registry: &MetricsRegistry) {
        self.instruments = (0..self.progress.len())
            .map(|i| ReplicaInstruments {
                shipped: registry.counter(&format!("server.repl.{i}.shipped")),
                acked: registry.counter(&format!("server.repl.{i}.acked")),
                lag: registry.gauge(&format!("server.repl.{i}.lag_records")),
                catchups: registry.counter(&format!("server.repl.{i}.catchups")),
            })
            .collect();
    }

    /// The messages to ship to `replica` right now: a snapshot when it is
    /// on a stale generation (counted as a catch-up), then its whole
    /// unacknowledged tail as `Append` windows of at most `window` frames
    /// each. A window is one copy of a slice of the shared log.
    pub(crate) fn pending(&mut self, replica: usize, window: usize) -> Vec<ReplMessage> {
        let p = self.progress[replica];
        let term = self.term;
        let out = self.log.read(|log| {
            let gen = log.gen();
            let mut out = Vec::new();
            let mut from = if p.gen == gen {
                p.next_offset
            } else {
                out.push(ReplMessage::Snapshot {
                    term,
                    gen,
                    image: log.base().to_vec(),
                });
                0
            };
            // Below the first held record every replica already holds
            // the records.
            from = from.max(log.first_held());
            while let Some((frames, count)) = log.window(from, window) {
                out.push(ReplMessage::Append {
                    term,
                    gen,
                    offset: from,
                    frames: frames.to_vec(),
                    count,
                });
                from += count;
            }
            out
        });
        if matches!(out.first(), Some(ReplMessage::Snapshot { .. })) {
            self.stats.catchups += 1;
            if let Some(ins) = self.instruments.get(replica) {
                ins.catchups.inc();
            }
        }
        self.stats.shipped += out.len() as u64;
        if let Some(ins) = self.instruments.get(replica) {
            ins.shipped.add(out.len() as u64);
        }
        out
    }

    /// Digests one reply from `replica`: advances its ack watermark,
    /// rewinds on out-of-sync rejections, and marks this primary deposed
    /// when a higher term appears.
    pub fn on_reply(&mut self, replica: usize, msg: &ReplMessage) {
        if msg.term() > self.term {
            self.deposed_by = Some(msg.term());
        }
        let (log_gen, first_held) = self.log.read(|log| (log.gen(), log.first_held()));
        match msg {
            ReplMessage::Ack {
                gen, next_offset, ..
            } => {
                if *gen == log_gen {
                    let p = &mut self.progress[replica];
                    if p.gen != log_gen {
                        p.gen = log_gen;
                        p.next_offset = 0;
                    }
                    if *next_offset > p.next_offset {
                        let delta = *next_offset - p.next_offset;
                        self.stats.acked_records += delta;
                        if let Some(ins) = self.instruments.get(replica) {
                            ins.acked.add(delta);
                        }
                        p.next_offset = *next_offset;
                        // The slowest ack bounds what the log still holds.
                        let slowest = self
                            .progress
                            .iter()
                            .map(|p| if p.gen == log_gen { p.next_offset } else { 0 })
                            .min()
                            .unwrap_or(0);
                        self.log.trim(log_gen, slowest);
                    }
                }
            }
            ReplMessage::Reject { reason, .. } => match reason {
                RejectReason::StaleTerm { have } => {
                    self.stats.stale_term_rejections += 1;
                    self.deposed_by = Some(*have);
                }
                RejectReason::OutOfSync { gen, next_offset } => {
                    let p = &mut self.progress[replica];
                    if *gen == log_gen {
                        // A reply that was overtaken can report a position
                        // below the first held record; the replica has
                        // since acknowledged at least that far, and a
                        // replica's position never moves back within a
                        // generation.
                        p.gen = *gen;
                        p.next_offset = (*next_offset).max(first_held);
                    } else {
                        // Wrong generation: force the snapshot path.
                        p.gen = *gen;
                        p.next_offset = 0;
                    }
                }
                RejectReason::IncompatibleFormat { .. } | RejectReason::Corrupt { .. } => {}
            },
            ReplMessage::Append { .. } | ReplMessage::Snapshot { .. } => {}
        }
        if let Some(ins) = self.instruments.get(replica) {
            ins.lag
                .set(i64::try_from(self.lag(replica)).unwrap_or(i64::MAX));
        }
    }

    /// Records `replica` has not yet acknowledged (counting the whole
    /// base image when it is a generation behind).
    #[must_use]
    pub(crate) fn lag(&self, replica: usize) -> u64 {
        let p = self.progress[replica];
        self.log.read(|log| {
            if p.gen == log.gen() {
                log.records().saturating_sub(p.next_offset)
            } else {
                log.base_records() + log.records()
            }
        })
    }

    /// True when every replica has acknowledged the entire log.
    #[must_use]
    pub fn all_caught_up(&self) -> bool {
        self.log.read(|log| {
            self.progress
                .iter()
                .all(|p| p.gen == log.gen() && p.next_offset == log.records())
        })
    }

    /// The higher term that fenced this primary off, if any reply carried
    /// one.
    #[must_use]
    pub fn deposed_by(&self) -> Option<u64> {
        self.deposed_by
    }

    /// Shipping counters.
    #[must_use]
    pub fn stats(&self) -> PrimaryStats {
        self.stats
    }
}

/// The receiving side: a fenced, strictly-validating log follower whose
/// store can be promoted into a full [`CoalitionServer`] on failover.
#[derive(Debug)]
pub struct Replica {
    index: usize,
    term: u64,
    gen: u64,
    next_offset: u64,
    store: MemStore,
    stats: ReplicaStats,
    rejected_stale_term: Option<Arc<Counter>>,
}

impl Replica {
    /// An empty replica; `index` names it in metric identifiers.
    #[must_use]
    pub fn new(index: usize) -> Self {
        Replica {
            index,
            term: 0,
            gen: 0,
            next_offset: 0,
            store: MemStore::new(),
            stats: ReplicaStats::default(),
            rejected_stale_term: None,
        }
    }

    /// Resolves this replica's `server.repl.{index}.rejected_stale_term`
    /// counter into `registry`.
    pub(crate) fn set_metrics(&mut self, registry: &MetricsRegistry) {
        self.rejected_stale_term =
            Some(registry.counter(&format!("server.repl.{}.rejected_stale_term", self.index)));
    }

    /// Handles one message from a primary, returning the reply to send
    /// back. Never mutates the local log on a rejected message.
    pub fn on_message(&mut self, msg: &ReplMessage) -> ReplMessage {
        let term = msg.term();
        if term < self.term {
            self.stats.rejected_stale_term += 1;
            if let Some(c) = &self.rejected_stale_term {
                c.inc();
            }
            return ReplMessage::Reject {
                term: self.term,
                reason: RejectReason::StaleTerm { have: self.term },
            };
        }
        self.term = term;
        match msg {
            ReplMessage::Snapshot { gen, image, .. } => self.install_snapshot(*gen, image),
            ReplMessage::Append {
                gen,
                offset,
                frames,
                count,
                ..
            } => self.apply_window(*gen, *offset, frames, *count),
            // Replicas only ever receive primary→replica traffic; anything
            // else is a protocol error worth flagging as out of sync.
            ReplMessage::Ack { .. } | ReplMessage::Reject { .. } => self.reject_out_of_sync(),
        }
    }

    fn install_snapshot(&mut self, gen: u64, image: &[u8]) -> ReplMessage {
        if gen <= self.gen {
            // A duplicated or reordered snapshot for a generation we
            // already hold (or have moved past): re-ack idempotently.
            self.stats.duplicates += 1;
            return self.ack();
        }
        match self.validate(image, 0) {
            Ok((records, _)) => {
                self.store.reset(image).expect("mem store reset");
                self.gen = gen;
                self.next_offset = 0;
                self.stats.snapshots_installed += 1;
                self.stats.applied += records;
                self.ack()
            }
            Err(reason) => self.reject(reason),
        }
    }

    /// Applies the window of `count` frames starting at `offset`: a
    /// window wholly below the watermark is re-acked, one that straddles
    /// it lands only its unseen suffix, in one store write.
    fn apply_window(&mut self, gen: u64, offset: u64, frames: &[u8], count: u64) -> ReplMessage {
        if gen != self.gen || offset > self.next_offset {
            return self.reject_out_of_sync();
        }
        let held = self.next_offset - offset;
        if count <= held {
            self.stats.duplicates += count;
            return self.ack();
        }
        match self.validate(frames, held) {
            Ok((n, suffix)) if n == count => {
                self.store
                    .append(&frames[suffix..])
                    .expect("mem store append");
                self.next_offset += count - held;
                self.stats.applied += count - held;
                self.stats.duplicates += held;
                self.ack()
            }
            Ok((n, _)) => self.reject(RejectReason::Corrupt {
                detail: format!("window carried {n} frames, message says {count}"),
            }),
            Err(reason) => self.reject(reason),
        }
    }

    /// Strictly decodes shipped bytes in one pass, without copying a
    /// payload: returns the frame count and the byte offset just past the
    /// first `skip` frames. Every frame is checked, skipped ones included.
    fn validate(&self, bytes: &[u8], skip: u64) -> Result<(u64, usize), RejectReason> {
        let mut frames = jaap_wal::decode_frames(bytes);
        let (mut count, mut suffix) = (0u64, 0usize);
        while let Some(frame) = frames.next() {
            let frame = frame.map_err(|e| match e {
                WalError::IncompatibleVersion { found, supported } => {
                    RejectReason::IncompatibleFormat { found, supported }
                }
                e => RejectReason::Corrupt {
                    detail: e.to_string(),
                },
            })?;
            if frame.term > self.term {
                return Err(RejectReason::Corrupt {
                    detail: format!(
                        "frame stamped with term {} above shipping term {}",
                        frame.term, self.term
                    ),
                });
            }
            count += 1;
            if count == skip {
                suffix = frames.position();
            }
        }
        Ok((count, suffix))
    }

    fn ack(&self) -> ReplMessage {
        ReplMessage::Ack {
            term: self.term,
            gen: self.gen,
            next_offset: self.next_offset,
        }
    }

    fn reject_out_of_sync(&mut self) -> ReplMessage {
        self.stats.rejected_out_of_sync += 1;
        self.reject_current(RejectReason::OutOfSync {
            gen: self.gen,
            next_offset: self.next_offset,
        })
    }

    fn reject(&mut self, reason: RejectReason) -> ReplMessage {
        if matches!(reason, RejectReason::IncompatibleFormat { .. }) {
            self.stats.rejected_incompatible += 1;
        }
        self.reject_current(reason)
    }

    fn reject_current(&self, reason: RejectReason) -> ReplMessage {
        ReplMessage::Reject {
            term: self.term,
            reason,
        }
    }

    /// Promotes this replica: recovers a [`CoalitionServer`] named `name`
    /// from the shipped log (the §5e replay path) and raises the fencing
    /// term to `new_term`, which must exceed every term this replica has
    /// seen. From here on, traffic from the deposed primary is rejected.
    ///
    /// # Errors
    ///
    /// [`CoalitionError::Config`] when `new_term` does not exceed the
    /// current term; any recovery error from the replay path.
    pub fn promote(
        &mut self,
        name: impl Into<String>,
        trust: TrustStore,
        new_term: u64,
    ) -> Result<(CoalitionServer, RecoveryReport), CoalitionError> {
        if new_term <= self.term {
            return Err(CoalitionError::Config(format!(
                "promotion term {new_term} must exceed current term {}",
                self.term
            )));
        }
        self.term = new_term;
        let (mut server, report) =
            CoalitionServer::recover(name, trust, Box::new(self.store.clone()))?;
        server.set_journal_term(new_term);
        Ok((server, report))
    }

    /// A handle on this replica's log store (shared bytes; survives the
    /// replica being dropped, like a disk surviving a crash).
    #[must_use]
    pub fn store(&self) -> MemStore {
        self.store.clone()
    }

    /// The replica's current position as `(gen, next_offset)`.
    #[cfg(test)]
    fn position(&self) -> (u64, u64) {
        (self.gen, self.next_offset)
    }

    /// Apply/reject counters.
    #[must_use]
    pub fn stats(&self) -> ReplicaStats {
        self.stats
    }
}

/// A [`Primary`] and its [`Replica`]s wired over a `jaap-net` mesh:
/// party 0 is the primary, parties `1..=n` are replicas. The pump runs
/// single-threaded for determinism; the mesh's [`FaultPlan`] injects the
/// chaos.
#[derive(Debug)]
pub struct ReplicationNet {
    /// The shipping state machine.
    pub primary: Primary,
    /// The follower state machines, by replica index.
    pub replicas: Vec<Replica>,
    primary_ep: Endpoint<ReplMessage>,
    replica_eps: Vec<Endpoint<ReplMessage>>,
    handle: NetworkHandle,
    window: usize,
}

impl ReplicationNet {
    /// A primary at `term` with `n_replicas` fresh replicas, exchanging
    /// messages through a mesh governed by `plan`.
    ///
    /// # Errors
    ///
    /// [`CoalitionError::Config`] when the mesh rejects the fault plan.
    pub fn new(
        term: u64,
        n_replicas: usize,
        outbox: LogOutbox,
        plan: FaultPlan,
    ) -> Result<Self, CoalitionError> {
        let primary = Primary::new(term, n_replicas, outbox);
        let replicas = (0..n_replicas).map(Replica::new).collect();
        let (primary_ep, replica_eps, handle) = Self::mesh(n_replicas, plan)?;
        Ok(ReplicationNet {
            primary,
            replicas,
            primary_ep,
            replica_eps,
            handle,
            window: DEFAULT_SHIP_WINDOW,
        })
    }

    fn mesh(n_replicas: usize, plan: FaultPlan) -> Result<MeshParts, CoalitionError> {
        let (mut endpoints, handle) =
            Network::<ReplMessage>::try_mesh_with(n_replicas + 1, plan, false)
                .map_err(|e| CoalitionError::Config(format!("replication mesh: {e}")))?;
        let primary_ep = endpoints.remove(0);
        Ok((primary_ep, endpoints, handle))
    }

    /// Replaces the mesh (and its fault plan) — how a test heals a
    /// partition or degrades a healthy link. Messages in flight on the
    /// old mesh are lost, which is exactly what a partition does.
    ///
    /// # Errors
    ///
    /// [`CoalitionError::Config`] when the mesh rejects the fault plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), CoalitionError> {
        let (primary_ep, replica_eps, handle) = Self::mesh(self.replicas.len(), plan)?;
        self.primary_ep = primary_ep;
        self.replica_eps = replica_eps;
        self.handle = handle;
        Ok(())
    }

    /// Resolves replication instruments for the primary and every
    /// replica into `registry`.
    pub fn set_metrics(&mut self, registry: &MetricsRegistry) {
        self.primary.set_metrics(registry);
        for r in &mut self.replicas {
            r.set_metrics(registry);
        }
    }

    /// Overrides the most frames one `Append` window carries (at least
    /// one).
    pub fn set_window(&mut self, window: usize) {
        self.window = window.max(1);
    }

    /// Runs up to `max_rounds` ship → apply → ack rounds, stopping early
    /// once every replica has acknowledged the whole log. Returns the
    /// number of rounds executed. Under message loss a single round may
    /// make no progress; callers pick `max_rounds` to bound retries.
    ///
    /// Each drain in a round blocks (for at most the 1 ms loss timeout per
    /// wait) only while a message sent to it in this round is still
    /// missing. Once all have arrived it takes what is already queued —
    /// duplicates included — and stops, so a loss-free round waits on no
    /// timer.
    pub fn sync(&mut self, max_rounds: usize) -> usize {
        for round in 0..max_rounds {
            if self.primary.all_caught_up() {
                return round;
            }
            let mut shipped = vec![0usize; self.replicas.len()];
            for (i, sent) in shipped.iter_mut().enumerate() {
                for msg in self.primary.pending(i, self.window) {
                    let _ = self.primary_ep.send(PartyId(i + 1), msg);
                    *sent += 1;
                }
            }
            let mut replies = 0;
            for (i, ep) in self.replica_eps.iter_mut().enumerate() {
                let mut drain = Drain::new(shipped[i]);
                while let Some(env) = drain.next(ep) {
                    if env.from != PartyId(0) {
                        continue;
                    }
                    let reply = self.replicas[i].on_message(&env.payload);
                    let _ = ep.send(PartyId(0), reply);
                    replies += 1;
                }
            }
            let mut drain = Drain::new(replies);
            while let Some(env) = drain.next(&mut self.primary_ep) {
                let from = env.from.0;
                if from >= 1 && from <= self.replicas.len() {
                    self.primary.on_reply(from - 1, &env.payload);
                }
            }
        }
        max_rounds
    }

    /// The mesh's inspection handle (fault statistics, transcript).
    #[must_use]
    pub fn net_handle(&self) -> &NetworkHandle {
        &self.handle
    }
}

/// One endpoint's receive loop in a sync round: blocks for at most
/// [`POLL`] per wait while fewer than `expected` distinct messages have
/// arrived, then only takes what is already queued. A duplicate (same
/// send `seq`) is returned but does not count again.
struct Drain {
    outstanding: usize,
    seen: Vec<u64>,
}

impl Drain {
    fn new(expected: usize) -> Self {
        Drain {
            outstanding: expected,
            seen: Vec::with_capacity(expected),
        }
    }

    fn next(&mut self, ep: &mut Endpoint<ReplMessage>) -> Option<Envelope<ReplMessage>> {
        let env = if self.outstanding > 0 {
            ep.recv_timeout(POLL).ok()?
        } else {
            ep.try_recv().ok()??
        };
        if !self.seen.contains(&env.seq) {
            self.seen.push(env.seq);
            self.outstanding = self.outstanding.saturating_sub(1);
        }
        Some(env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaap_wal::{frame_record_with_term, Journal, ShippingLog, TeeStore, FORMAT_VERSION};
    use proptest::prelude::*;

    fn shipping_pair(term: u64) -> (Journal, Primary, Replica) {
        let outbox = LogOutbox::new();
        let journal = Journal::new(Box::new(TeeStore::new(MemStore::new(), outbox.clone())));
        let primary = Primary::new(term, 1, outbox);
        (journal, primary, Replica::new(0))
    }

    fn pump_direct(primary: &mut Primary, replica: &mut Replica, rounds: usize) {
        for _ in 0..rounds {
            for msg in primary.pending(0, DEFAULT_SHIP_WINDOW) {
                let reply = replica.on_message(&msg);
                primary.on_reply(0, &reply);
            }
        }
    }

    /// The frames `payloads` stamped with `terms`, back to back.
    fn framed(terms: &[u64], payloads: &[&[u8]]) -> Vec<u8> {
        terms
            .iter()
            .zip(payloads)
            .flat_map(|(&term, payload)| frame_record_with_term(term, payload))
            .collect()
    }

    /// A term-1, generation-0 window of `count` frames from `offset`.
    fn window(offset: u64, frames: Vec<u8>, count: u64) -> ReplMessage {
        ReplMessage::Append {
            term: 1,
            gen: 0,
            offset,
            frames,
            count,
        }
    }

    const FIVE: [&[u8]; 5] = [b"r0", b"r1", b"r2", b"r3", b"r4"];

    /// A replica holding `FIVE[..held]`, applied as one window.
    fn replica_holding(held: usize) -> Replica {
        let mut replica = Replica::new(0);
        if held > 0 {
            let reply = replica.on_message(&window(
                0,
                framed(&[1; 5][..held], &FIVE[..held]),
                held as u64,
            ));
            assert!(matches!(reply, ReplMessage::Ack { .. }), "{reply:?}");
        }
        replica
    }

    fn is_corrupt(reply: &ReplMessage) -> bool {
        matches!(
            reply,
            ReplMessage::Reject {
                reason: RejectReason::Corrupt { .. },
                ..
            }
        )
    }

    #[test]
    fn appends_ship_in_order_and_ack() {
        let (mut journal, mut primary, mut replica) = shipping_pair(1);
        journal.set_term(1);
        journal.append(b"r1").expect("append");
        journal.append(b"r2").expect("append");
        pump_direct(&mut primary, &mut replica, 1);
        assert!(primary.all_caught_up());
        assert_eq!(primary.lag(0), 0);
        assert_eq!(replica.stats().applied, 2);
        assert_eq!(primary.stats().shipped, 1, "one window for both records");
        let shipped = jaap_wal::parse_log(&replica.store().snapshot());
        assert_eq!(shipped.records, vec![b"r1".to_vec(), b"r2".to_vec()]);
        assert_eq!(shipped.terms, vec![1, 1]);
    }

    #[test]
    fn backlog_ships_in_windows_of_at_most_window_frames() {
        let (mut journal, mut primary, mut replica) = shipping_pair(1);
        journal.set_term(1);
        for i in 0..7u8 {
            journal.append(&[i]).expect("append");
        }
        let msgs = primary.pending(0, 3);
        let shape: Vec<(u64, u64)> = msgs
            .iter()
            .map(|m| match m {
                ReplMessage::Append { offset, count, .. } => (*offset, *count),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(shape, vec![(0, 3), (3, 3), (6, 1)]);
        for msg in &msgs {
            let reply = replica.on_message(msg);
            primary.on_reply(0, &reply);
        }
        assert!(primary.all_caught_up());
        assert_eq!(primary.stats().acked_records, 7);
        assert_eq!(replica.store().snapshot(), {
            let mut log = Vec::new();
            for i in 0..7u8 {
                log.extend_from_slice(&frame_record_with_term(1, &[i]));
            }
            log
        });
    }

    #[test]
    fn frames_leave_the_primary_once_every_replica_acknowledged_them() {
        let outbox = LogOutbox::new();
        let mut journal = Journal::new(Box::new(TeeStore::new(MemStore::new(), outbox.clone())));
        journal.set_term(1);
        let mut primary = Primary::new(1, 2, outbox.clone());
        let mut replicas = [Replica::new(0), Replica::new(1)];
        for payload in [b"r0", b"r1", b"r2"] {
            journal.append(payload).expect("append");
        }
        let mut ship = |primary: &mut Primary, to: usize| {
            for msg in primary.pending(to, 8) {
                let reply = replicas[to].on_message(&msg);
                primary.on_reply(to, &reply);
            }
        };
        ship(&mut primary, 0);
        assert_eq!(
            outbox.read(ShippingLog::held_records),
            3,
            "replica 1 still needs them"
        );
        ship(&mut primary, 1);
        assert!(primary.all_caught_up());
        assert_eq!(
            outbox.read(|log| (log.held_records(), log.held_bytes())),
            (0, 0)
        );
        assert_eq!(primary.lag(0), 0);
        // An overtaken out-of-sync reply from before the acks cannot
        // strand a replica below the frames the log still holds.
        primary.on_reply(
            0,
            &ReplMessage::Reject {
                term: 1,
                reason: RejectReason::OutOfSync {
                    gen: 0,
                    next_offset: 0,
                },
            },
        );
        assert!(primary.all_caught_up());
        journal.append(b"r3").expect("append");
        let msgs = primary.pending(0, 8);
        assert!(
            matches!(
                msgs.as_slice(),
                [ReplMessage::Append {
                    offset: 3,
                    count: 1,
                    ..
                }]
            ),
            "{msgs:?}"
        );
        assert_eq!(primary.lag(1), 1);
    }

    #[test]
    fn rewrite_ships_as_snapshot_catchup() {
        let (mut journal, mut primary, mut replica) = shipping_pair(1);
        journal.append(b"old").expect("append");
        journal
            .rewrite(&[b"snap".to_vec(), b"shot".to_vec()])
            .expect("rewrite");
        journal.append(b"tail").expect("append");
        pump_direct(&mut primary, &mut replica, 1);
        assert!(primary.all_caught_up());
        assert_eq!(replica.stats().snapshots_installed, 1);
        assert!(primary.stats().catchups >= 1);
        let shipped = jaap_wal::parse_log(&replica.store().snapshot());
        assert_eq!(
            shipped.records,
            vec![b"snap".to_vec(), b"shot".to_vec(), b"tail".to_vec()]
        );
    }

    #[test]
    fn reset_image_records_count_toward_lag() {
        let (mut journal, primary, _) = shipping_pair(1);
        journal
            .rewrite(&[b"a".to_vec(), b"b".to_vec(), b"c".to_vec()])
            .expect("rewrite");
        journal.append(b"d").expect("append");
        assert_eq!(primary.lag(0), 4, "3 image records + 1 tail record");
    }

    #[test]
    fn duplicate_append_is_reacked_not_reapplied() {
        let (mut journal, mut primary, mut replica) = shipping_pair(1);
        journal.set_term(1);
        journal.append(b"once").expect("append");
        let msgs = primary.pending(0, 8);
        assert_eq!(msgs.len(), 1);
        let first = replica.on_message(&msgs[0]);
        let second = replica.on_message(&msgs[0]);
        assert_eq!(first, second);
        assert_eq!(replica.stats().applied, 1);
        assert_eq!(replica.stats().duplicates, 1);
    }

    #[test]
    fn duplicate_window_is_reacked_whole_and_leaves_the_log() {
        let mut replica = replica_holding(5);
        let before = replica.store().snapshot();
        let reply = replica.on_message(&window(1, framed(&[1; 3], &FIVE[1..4]), 3));
        assert_eq!(
            reply,
            ReplMessage::Ack {
                term: 1,
                gen: 0,
                next_offset: 5
            }
        );
        assert_eq!(replica.store().snapshot(), before);
        assert_eq!(
            (replica.stats().applied, replica.stats().duplicates),
            (5, 3)
        );
    }

    #[test]
    fn straddling_window_applies_only_its_unseen_suffix() {
        let mut replica = replica_holding(2);
        let reply = replica.on_message(&window(0, framed(&[1; 5], &FIVE), 5));
        assert_eq!(
            reply,
            ReplMessage::Ack {
                term: 1,
                gen: 0,
                next_offset: 5
            }
        );
        assert_eq!(replica.store().snapshot(), framed(&[1; 5], &FIVE));
        assert_eq!(
            (replica.stats().applied, replica.stats().duplicates),
            (5, 2)
        );
    }

    #[test]
    fn gap_is_rejected_with_replica_position() {
        let mut replica = replica_holding(1);
        let reply = replica.on_message(&window(3, framed(&[1; 2], &FIVE[3..]), 2));
        assert!(matches!(
            reply,
            ReplMessage::Reject {
                reason: RejectReason::OutOfSync {
                    gen: 0,
                    next_offset: 1
                },
                ..
            }
        ));
        assert_eq!(replica.store().snapshot(), framed(&[1], &FIVE[..1]));
        assert_eq!(replica.stats().rejected_out_of_sync, 1);
    }

    #[test]
    fn window_with_a_frame_above_the_term_is_refused_whole() {
        let mut replica = replica_holding(1);
        let before = replica.store().snapshot();
        let frames = framed(&[1, 2, 1], &FIVE[1..4]);
        let reply = replica.on_message(&window(1, frames, 3));
        assert!(is_corrupt(&reply), "{reply:?}");
        assert_eq!(replica.store().snapshot(), before);
        assert_eq!(replica.position(), (0, 1));
    }

    #[test]
    fn window_with_one_corrupt_frame_is_refused_whole() {
        let mut replica = replica_holding(1);
        let before = replica.store().snapshot();
        let mut frames = framed(&[1; 3], &FIVE[1..4]);
        let second_payload = 2 * jaap_wal::frame::HEADER_LEN + FIVE[1].len();
        frames[second_payload] ^= 0x04;
        let reply = replica.on_message(&window(1, frames, 3));
        assert!(is_corrupt(&reply), "{reply:?}");
        assert_eq!(replica.store().snapshot(), before);
        assert_eq!(replica.position(), (0, 1));
    }

    #[test]
    fn window_whose_count_disagrees_with_its_frames_is_refused() {
        let mut replica = Replica::new(0);
        let reply = replica.on_message(&window(0, framed(&[1; 2], &FIVE[..2]), 3));
        assert!(is_corrupt(&reply), "{reply:?}");
        assert!(replica.store().snapshot().is_empty());
    }

    #[test]
    fn stale_term_is_fenced_and_counted() {
        let registry = MetricsRegistry::new();
        let mut replica = Replica::new(0);
        replica.set_metrics(&registry);
        // Hear from term 3 first.
        let _ = replica.on_message(&ReplMessage::Append {
            term: 3,
            gen: 0,
            offset: 0,
            frames: frame_record_with_term(3, b"new-regime"),
            count: 1,
        });
        // A deposed term-1 primary is rejected without touching the log.
        let before = replica.store().snapshot();
        let reply = replica.on_message(&window(1, frame_record_with_term(1, b"zombie"), 1));
        assert!(matches!(
            reply,
            ReplMessage::Reject {
                reason: RejectReason::StaleTerm { have: 3 },
                ..
            }
        ));
        assert_eq!(replica.store().snapshot(), before);
        assert_eq!(replica.stats().rejected_stale_term, 1);
        assert_eq!(
            registry.counter_value("server.repl.0.rejected_stale_term"),
            Some(1)
        );
    }

    #[test]
    fn primary_learns_it_is_deposed_from_replies() {
        let mut primary = Primary::new(1, 1, LogOutbox::new());
        primary.on_reply(
            0,
            &ReplMessage::Reject {
                term: 4,
                reason: RejectReason::StaleTerm { have: 4 },
            },
        );
        assert_eq!(primary.deposed_by(), Some(4));
        assert_eq!(primary.stats().stale_term_rejections, 1);
    }

    #[test]
    fn incompatible_format_version_is_a_typed_rejection() {
        let mut replica = Replica::new(0);
        let mut frame = frame_record_with_term(1, b"from-the-future");
        frame[2] = FORMAT_VERSION + 1;
        let reply = replica.on_message(&window(0, frame, 1));
        assert!(matches!(
            reply,
            ReplMessage::Reject {
                reason: RejectReason::IncompatibleFormat {
                    found,
                    supported,
                },
                ..
            } if found == FORMAT_VERSION + 1 && supported == FORMAT_VERSION
        ));
        assert_eq!(replica.stats().rejected_incompatible, 1);
        assert_eq!(replica.stats().applied, 0);
    }

    #[test]
    fn corrupt_frame_is_rejected_without_applying() {
        let mut replica = Replica::new(0);
        let mut frame = frame_record_with_term(1, b"soon-corrupt");
        let last = frame.len() - 1;
        frame[last] ^= 0x10;
        let reply = replica.on_message(&window(0, frame, 1));
        assert!(is_corrupt(&reply), "{reply:?}");
        assert_eq!(replica.stats().applied, 0);
    }

    #[test]
    fn sync_over_lossy_mesh_converges() {
        let outbox = LogOutbox::new();
        let mut journal = Journal::new(Box::new(TeeStore::new(MemStore::new(), outbox.clone())));
        journal.set_term(1);
        let plan = FaultPlan::seeded(7).with_drop(0.3).with_duplicate(0.2);
        let mut net = ReplicationNet::new(1, 2, outbox, plan).expect("net");
        for i in 0..20u8 {
            journal.append(&[i]).expect("append");
        }
        net.sync(200);
        assert!(net.primary.all_caught_up(), "replication did not converge");
        for r in &net.replicas {
            let log = jaap_wal::parse_log(&r.store().snapshot());
            assert_eq!(log.records.len(), 20);
        }
        assert!(net.net_handle().stats().messages_dropped > 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Decoder robustness: a window of 1–8 valid frames with one bit
        /// flipped, or arbitrary bytes under an arbitrary header, never
        /// panics the replica, and a rejection never changes its log.
        #[test]
        fn mangled_windows_never_panic_and_rejections_leave_the_log(
            held in 0usize..3,
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..48),
                1..=8,
            ),
            flip in any::<u64>(),
            noise in proptest::collection::vec(any::<u8>(), 0..96),
            use_noise in any::<bool>(),
            offset in 0u64..4,
            count in 0u64..10,
        ) {
            let mut replica = replica_holding(held);
            let before = replica.store().snapshot();
            let frames = if use_noise {
                noise
            } else {
                let mut frames: Vec<u8> = payloads
                    .iter()
                    .flat_map(|p| frame_record_with_term(1, p))
                    .collect();
                let bit = (flip % (frames.len() as u64 * 8)) as usize;
                frames[bit / 8] ^= 1 << (bit % 8);
                frames
            };
            let reply = replica.on_message(&window(offset, frames, count));
            match reply {
                ReplMessage::Reject { .. } => {
                    prop_assert_eq!(replica.store().snapshot(), before);
                    prop_assert_eq!(replica.position(), (0, held as u64));
                }
                ReplMessage::Ack { next_offset, .. } => {
                    // Only a window that lands nothing new may be acked.
                    prop_assert_eq!(next_offset, held as u64);
                    prop_assert_eq!(replica.store().snapshot(), before);
                }
                other => prop_assert!(false, "unexpected reply {:?}", other),
            }
        }
    }
}
