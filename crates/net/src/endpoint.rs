//! Per-party network endpoints.

use std::collections::VecDeque;
use std::fmt::Debug;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_channel::{Receiver, RecvTimeoutError, Sender};

use crate::fault::Fate;
use crate::network::Shared;
use crate::transcript::{TranscriptEntry, TranscriptEvent};
use crate::PartyId;

/// A message in flight: payload plus routing metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sender.
    pub from: PartyId,
    /// Recipient.
    pub to: PartyId,
    /// Global send sequence number.
    pub seq: u64,
    /// The payload.
    pub payload: M,
}

/// Channel representation of a message: the envelope plus the instant the
/// environment allows it to surface (delay injection). Not part of the
/// public API — receivers only ever see the [`Envelope`].
#[derive(Debug, Clone)]
pub(crate) struct Wire<M> {
    env: Envelope<M>,
    due: Option<Instant>,
}

impl<M> Wire<M> {
    /// Whether the message may surface at or before `deadline`.
    fn due_by(&self, deadline: Instant) -> bool {
        self.due.is_none_or(|d| d <= deadline)
    }

    /// Blocks out any residual injected delay, then unwraps the envelope.
    fn surface(self) -> Envelope<M> {
        if let Some(due) = self.due {
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        self.env
    }
}

/// Errors surfaced by endpoint operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The recipient id is not on this network.
    UnknownParty(PartyId),
    /// A party cannot send to itself.
    SelfSend,
    /// The peer endpoint was dropped (its channel is disconnected).
    Disconnected,
    /// `recv_timeout` expired with no message.
    Timeout,
    /// A mesh construction was rejected: zero parties, an invalid
    /// [`crate::FaultPlan`], or a fault entry naming a party outside the
    /// mesh (returned by [`crate::Network::try_mesh_with`]).
    InvalidMesh(String),
}

impl core::fmt::Display for NetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NetError::UnknownParty(p) => write!(f, "unknown party {p}"),
            NetError::SelfSend => write!(f, "a party cannot send to itself"),
            NetError::Disconnected => write!(f, "peer endpoint disconnected"),
            NetError::Timeout => write!(f, "receive timed out"),
            NetError::InvalidMesh(why) => write!(f, "{why}"),
        }
    }
}

impl std::error::Error for NetError {}

/// One party's handle onto the simulated network.
///
/// Receiving is either in arrival order ([`Endpoint::recv`]) or per-sender
/// ([`Endpoint::recv_from`]); the latter buffers messages from other senders
/// so protocols can be written in direct style.
pub struct Endpoint<M> {
    id: PartyId,
    n: usize,
    senders: Vec<Sender<Wire<M>>>,
    receiver: Receiver<Wire<M>>,
    pending: Vec<VecDeque<Wire<M>>>,
    shared: Arc<Shared>,
}

impl<M: Clone + Debug + Send + 'static> Endpoint<M> {
    pub(crate) fn new(
        id: usize,
        n: usize,
        senders: Vec<Sender<Wire<M>>>,
        receiver: Receiver<Wire<M>>,
        shared: Arc<Shared>,
    ) -> Self {
        Endpoint {
            id: PartyId(id),
            n,
            senders,
            receiver,
            pending: (0..n).map(|_| VecDeque::new()).collect(),
            shared,
        }
    }

    /// This endpoint's party id.
    #[must_use]
    pub fn id(&self) -> PartyId {
        self.id
    }

    /// Total number of parties on the network.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    fn record(&self, seq: u64, to: PartyId, payload: &M, event: TranscriptEvent) {
        if self.shared.record_transcript {
            self.shared.transcript.lock().push(TranscriptEntry {
                seq,
                from: self.id,
                to,
                payload: format!("{payload:?}"),
                event,
            });
        }
    }

    /// Counts a suppressed message and tags the transcript accordingly.
    fn block(&self, seq: u64, to: PartyId, payload: &M, event: TranscriptEvent) {
        self.shared.stats.lock().messages_blocked += 1;
        if let Some(link) = self.shared.link(self.id.0, to.0, self.n) {
            link.blocked.inc();
        }
        self.record(seq, to, payload, event);
    }

    /// Sends `payload` to party `to`.
    ///
    /// # Errors
    ///
    /// [`NetError::SelfSend`] when `to == self.id()`,
    /// [`NetError::UnknownParty`] for an out-of-range id, and
    /// [`NetError::Disconnected`] if the peer's endpoint has been dropped.
    /// A message consumed by the fault plan — dropped, blocked by a
    /// partition, or suppressed because this party has crash-stopped —
    /// still returns `Ok(())`: the sender cannot tell (that is the point of
    /// the environment adversary).
    pub fn send(&self, to: PartyId, payload: M) -> Result<(), NetError> {
        if to == self.id {
            return Err(NetError::SelfSend);
        }
        let Some(sender) = self.senders.get(to.0) else {
            return Err(NetError::UnknownParty(to));
        };
        let seq = {
            let mut seq = self.shared.seq.lock();
            let cur = *seq;
            *seq += 1;
            cur
        };
        self.shared.stats.lock().messages_sent += 1;

        // Crash-stop: once this party exhausts its send budget it is dead —
        // every later send is silently swallowed.
        let my_sends = {
            let mut sent_by = self.shared.sent_by.lock();
            sent_by[self.id.0] += 1;
            sent_by[self.id.0]
        };
        if let Some(budget) = self.shared.plan.crash_limit(self.id.0) {
            if my_sends > budget {
                {
                    let mut crashed = self.shared.crashed.lock();
                    if !crashed[self.id.0] {
                        crashed[self.id.0] = true;
                        self.shared.stats.lock().parties_crashed += 1;
                    }
                }
                self.block(seq, to, &payload, TranscriptEvent::DeadSender);
                return Ok(());
            }
        }

        // Partition: the link between the two parties is severed.
        if self.shared.plan.is_severed(self.id.0, to.0) {
            self.block(seq, to, &payload, TranscriptEvent::Partitioned);
            return Ok(());
        }

        let fate = self.shared.faults.lock().decide();
        let env = Envelope {
            from: self.id,
            to,
            seq,
            payload,
        };
        let link = self.shared.link(self.id.0, to.0, self.n);
        match fate {
            Fate::Drop => {
                self.shared.stats.lock().messages_dropped += 1;
                if let Some(link) = link {
                    link.dropped.inc();
                }
                self.record(seq, to, &env.payload, TranscriptEvent::Dropped);
                Ok(())
            }
            Fate::Deliver => {
                self.shared.stats.lock().messages_delivered += 1;
                if let Some(link) = link {
                    link.delivered.inc();
                }
                self.record(seq, to, &env.payload, TranscriptEvent::Delivered);
                sender
                    .send(Wire { env, due: None })
                    .map_err(|_| NetError::Disconnected)
            }
            Fate::Duplicate => {
                {
                    let mut stats = self.shared.stats.lock();
                    stats.messages_duplicated += 1;
                    stats.messages_delivered += 2;
                }
                if let Some(link) = link {
                    link.duplicated.inc();
                    link.delivered.add(2);
                }
                self.record(seq, to, &env.payload, TranscriptEvent::Duplicated);
                let wire = Wire { env, due: None };
                sender
                    .send(wire.clone())
                    .and_then(|()| sender.send(wire))
                    .map_err(|_| NetError::Disconnected)
            }
            Fate::Delay(d) => {
                {
                    let mut stats = self.shared.stats.lock();
                    stats.messages_delayed += 1;
                    stats.messages_delivered += 1;
                }
                if let Some(link) = link {
                    link.delayed.inc();
                    link.delivered.inc();
                }
                self.record(seq, to, &env.payload, TranscriptEvent::Delayed(d));
                sender
                    .send(Wire {
                        env,
                        due: Some(Instant::now() + d),
                    })
                    .map_err(|_| NetError::Disconnected)
            }
        }
    }

    /// Sends `payload` to every other party, best effort: a peer whose
    /// endpoint is already gone is skipped — its departure is its own
    /// business, not the sender's failure. Returns how many peers the
    /// message was handed to (sends the fault plan then consumes count,
    /// since the sender cannot tell them apart), so the caller judges
    /// quorum.
    pub fn broadcast(&self, payload: M) -> usize {
        (0..self.n)
            .filter(|&i| i != self.id.0)
            .filter(|&i| self.send(PartyId(i), payload.clone()).is_ok())
            .count()
    }

    /// Pops the first buffered message, in sender-id order.
    fn pop_pending(&mut self) -> Option<Wire<M>> {
        self.pending.iter_mut().find_map(VecDeque::pop_front)
    }

    /// Looks once, without blocking, for a message (from `from`, or from
    /// anyone) that may surface by `deadline`: the front of each buffered
    /// queue first, then everything already in the channel. Channel
    /// messages from another sender, or not due by `deadline`, are
    /// buffered for a later receive.
    fn take_due(
        &mut self,
        from: Option<PartyId>,
        deadline: Instant,
    ) -> Result<Option<Wire<M>>, NetError> {
        let queues = from.map_or(0..self.n, |p| p.0..p.0 + 1);
        for i in queues {
            if self.pending[i].front().is_some_and(|w| w.due_by(deadline)) {
                return Ok(self.pending[i].pop_front());
            }
        }
        loop {
            match self.receiver.try_recv() {
                Ok(w) if from.is_none_or(|p| w.env.from == p) && w.due_by(deadline) => {
                    return Ok(Some(w));
                }
                Ok(w) => self.pending[w.env.from.0].push_back(w),
                Err(RecvTimeoutError::Timeout) => return Ok(None),
                Err(RecvTimeoutError::Disconnected) => return Err(NetError::Disconnected),
            }
        }
    }

    /// Waits up to `deadline` for a message from `from` (or from anyone),
    /// after one non-blocking look ([`Endpoint::take_due`]) — so a zero
    /// budget still returns a message that has already arrived. An expiry
    /// is counted in [`crate::NetworkStats::receive_timeouts`].
    fn wait_due(&mut self, from: Option<PartyId>, deadline: Instant) -> Result<Wire<M>, NetError> {
        if let Some(w) = self.take_due(from, deadline)? {
            return Ok(w);
        }
        loop {
            let now = Instant::now();
            let Some(budget) = deadline
                .checked_duration_since(now)
                .filter(|b| !b.is_zero())
            else {
                break;
            };
            match self.receiver.recv_timeout(budget) {
                Ok(w) if from.is_none_or(|p| w.env.from == p) && w.due_by(deadline) => {
                    return Ok(w);
                }
                // Another sender's, or not due yet: keep it for a later
                // receive, keep waiting.
                Ok(w) => self.pending[w.env.from.0].push_back(w),
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => return Err(NetError::Disconnected),
            }
        }
        self.shared.stats.lock().receive_timeouts += 1;
        Err(NetError::Timeout)
    }

    /// Receives the next message in arrival order, blocking (including
    /// through any injected delay). Messages previously buffered by
    /// [`Endpoint::recv_from`] are returned first in sender-id order.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] if all senders are gone.
    pub fn recv(&mut self) -> Result<Envelope<M>, NetError> {
        if let Some(w) = self.pop_pending() {
            return Ok(w.surface());
        }
        self.receiver
            .recv()
            .map(Wire::surface)
            .map_err(|_| NetError::Disconnected)
    }

    /// Receives a message that has already arrived and is due, without
    /// blocking: buffered messages first (in sender-id order), then the
    /// channel. `Ok(None)` when nothing is ready; a message whose injected
    /// delay has not yet run out stays buffered. Finding nothing is not
    /// counted as a receive timeout.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] if all senders are gone.
    pub fn try_recv(&mut self) -> Result<Option<Envelope<M>>, NetError> {
        Ok(self.take_due(None, Instant::now())?.map(Wire::surface))
    }

    /// Like [`Endpoint::recv`] with a timeout. A message whose injected
    /// delay extends past the timeout is kept buffered (it will surface on a
    /// later receive) and [`NetError::Timeout`] is returned. A message that
    /// has already arrived is returned even with a zero timeout.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] if nothing surfaces within `dur`;
    /// [`NetError::Disconnected`] if all senders are gone.
    pub fn recv_timeout(&mut self, dur: Duration) -> Result<Envelope<M>, NetError> {
        self.wait_due(None, Instant::now() + dur).map(Wire::surface)
    }

    /// Receives the next message *from a specific sender*, buffering
    /// out-of-order messages from other senders for later delivery.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownParty`] for an out-of-range id;
    /// [`NetError::Disconnected`] if the channel closes first.
    pub fn recv_from(&mut self, from: PartyId) -> Result<M, NetError> {
        if from.0 >= self.n {
            return Err(NetError::UnknownParty(from));
        }
        if let Some(w) = self.pending[from.0].pop_front() {
            return Ok(w.surface().payload);
        }
        loop {
            let w = self.receiver.recv().map_err(|_| NetError::Disconnected)?;
            if w.env.from == from {
                return Ok(w.surface().payload);
            }
            self.pending[w.env.from.0].push_back(w);
        }
    }

    /// Like [`Endpoint::recv_from`] with a timeout: the bounded wait every
    /// signing-session round uses so no protocol step can hang on a crashed
    /// or partitioned peer. A message from `from` that has already arrived
    /// is returned even with a zero timeout.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownParty`] for an out-of-range id;
    /// [`NetError::Timeout`] if nothing from `from` surfaces within `dur`;
    /// [`NetError::Disconnected`] if the channel closes first.
    pub fn recv_from_timeout(&mut self, from: PartyId, dur: Duration) -> Result<M, NetError> {
        if from.0 >= self.n {
            return Err(NetError::UnknownParty(from));
        }
        self.wait_due(Some(from), Instant::now() + dur)
            .map(|w| w.surface().payload)
    }

    /// Receives exactly one message from every other party, returning
    /// payloads indexed by sender (position `self.id()` is `None`).
    ///
    /// This is the synchronisation point between protocol rounds.
    ///
    /// # Errors
    ///
    /// Propagates [`Endpoint::recv_from`] errors.
    pub fn gather_round(&mut self) -> Result<Vec<Option<M>>, NetError> {
        let me = self.id.0;
        let mut out: Vec<Option<M>> = (0..self.n).map(|_| None).collect();
        for i in (0..self.n).filter(|&i| i != me) {
            out[i] = Some(self.recv_from(PartyId(i))?);
        }
        Ok(out)
    }
}

impl<M> core::fmt::Debug for Endpoint<M> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Endpoint")
            .field("id", &self.id)
            .field("n", &self.n)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::network::Network;
    use crate::run_parties;

    #[test]
    fn self_send_rejected() {
        let (mut eps, _h) = Network::<u8>::mesh(2);
        let ep = eps.remove(0);
        assert_eq!(ep.send(PartyId(0), 1), Err(NetError::SelfSend));
    }

    #[test]
    fn unknown_party_rejected() {
        let (mut eps, _h) = Network::<u8>::mesh(2);
        let ep = eps.remove(0);
        assert_eq!(
            ep.send(PartyId(9), 1),
            Err(NetError::UnknownParty(PartyId(9)))
        );
    }

    #[test]
    fn recv_from_buffers_other_senders() {
        let (eps, _h) = Network::<u32>::mesh(3);
        let results = run_parties(eps, |mut ep| match ep.id().0 {
            0 => {
                // Receive specifically from 2 first, then from 1, regardless
                // of arrival order.
                let from2 = ep.recv_from(PartyId(2)).expect("from 2");
                let from1 = ep.recv_from(PartyId(1)).expect("from 1");
                vec![from2, from1]
            }
            me => {
                ep.send(PartyId(0), me as u32 * 10).expect("send");
                vec![]
            }
        });
        assert_eq!(results[0], vec![20, 10]);
    }

    #[test]
    fn broadcast_skips_departed_peers() {
        let (mut eps, _h) = Network::<u8>::mesh(3);
        drop(eps.pop());
        let mut survivors = eps.into_iter();
        let sender = survivors.next().expect("party 0");
        let mut receiver = survivors.next().expect("party 1");
        assert_eq!(
            sender.broadcast(7),
            1,
            "party 2 left; party 1 still gets it"
        );
        assert_eq!(receiver.recv().expect("delivered").payload, 7);
    }

    #[test]
    fn gather_round_collects_all_peers() {
        let (eps, _h) = Network::<usize>::mesh(4);
        let results = run_parties(eps, |mut ep| {
            assert_eq!(ep.broadcast(ep.id().0), 3);
            ep.gather_round().expect("gather")
        });
        for (me, row) in results.iter().enumerate() {
            for (i, slot) in row.iter().enumerate() {
                if i == me {
                    assert!(slot.is_none());
                } else {
                    assert_eq!(*slot, Some(i));
                }
            }
        }
    }

    #[test]
    fn recv_drains_pending_before_channel() {
        let (eps, _h) = Network::<u32>::mesh(3);
        let results = run_parties(eps, |mut ep| match ep.id().0 {
            0 => {
                // Force buffering: wait for 2 first even though 1 may arrive.
                let _ = ep.recv_from(PartyId(2)).expect("from 2");
                // Now recv() must surface the buffered message from 1.
                let env = ep.recv().expect("recv");
                Some((env.from, env.payload))
            }
            1 => {
                ep.send(PartyId(0), 111).expect("send");
                None
            }
            _ => {
                // Give party 1 a head start so its message is buffered.
                std::thread::sleep(Duration::from_millis(20));
                ep.send(PartyId(0), 222).expect("send");
                None
            }
        });
        assert_eq!(results[0], Some((PartyId(1), 111)));
    }

    #[test]
    fn timeout_on_silence() {
        let (mut eps, handle) = Network::<u8>::mesh(2);
        let mut ep = eps.remove(0);
        assert_eq!(
            ep.recv_timeout(Duration::from_millis(10)),
            Err(NetError::Timeout)
        );
        assert_eq!(handle.stats().receive_timeouts, 1);
    }

    #[test]
    fn zero_budget_returns_a_delivered_message() {
        let (mut eps, handle) = Network::<u8>::mesh(2);
        let mut receiver = eps.remove(1);
        let sender = eps.remove(0);
        sender.send(PartyId(1), 1).expect("send");
        sender.send(PartyId(1), 2).expect("send");
        let env = receiver
            .recv_timeout(Duration::ZERO)
            .expect("already delivered");
        assert_eq!((env.from, env.payload), (PartyId(0), 1));
        assert_eq!(
            receiver.recv_from_timeout(PartyId(0), Duration::ZERO),
            Ok(2)
        );
        assert_eq!(
            receiver.recv_timeout(Duration::ZERO),
            Err(NetError::Timeout)
        );
        assert_eq!(handle.stats().receive_timeouts, 1);
    }

    #[test]
    fn zero_budget_leaves_a_message_that_is_not_yet_due() {
        let plan = FaultPlan::seeded(3).with_delay(1.0, Duration::from_secs(60));
        let (mut eps, handle) = Network::<u8>::mesh_with(2, plan, true);
        let mut receiver = eps.remove(1);
        let sender = eps.remove(0);
        sender.send(PartyId(1), 7).expect("send");
        let delay = match handle.transcript()[0].event {
            crate::TranscriptEvent::Delayed(d) => d,
            ref other => panic!("expected a delay, got {other:?}"),
        };
        assert!(delay >= Duration::from_secs(1), "seeded delay {delay:?}");
        assert_eq!(
            receiver.recv_timeout(Duration::ZERO),
            Err(NetError::Timeout)
        );
        assert_eq!(
            receiver.recv_from_timeout(PartyId(0), Duration::ZERO),
            Err(NetError::Timeout)
        );
        assert_eq!(receiver.try_recv(), Ok(None));
        assert_eq!(handle.stats().receive_timeouts, 2);
    }

    #[test]
    fn try_recv_on_an_empty_channel_finds_nothing_and_counts_no_timeout() {
        let (mut eps, handle) = Network::<u8>::mesh(2);
        assert_eq!(eps[0].try_recv(), Ok(None));
        assert_eq!(eps[1].try_recv(), Ok(None));
        assert_eq!(handle.stats().receive_timeouts, 0);
    }

    #[test]
    fn try_recv_returns_messages_buffered_by_recv_from() {
        let (mut eps, _h) = Network::<u32>::mesh(3);
        let mut receiver = eps.remove(0);
        eps[0].send(PartyId(0), 11).expect("send from 1");
        eps[1].send(PartyId(0), 22).expect("send from 2");
        // Waiting on party 2 buffers party 1's earlier message.
        assert_eq!(receiver.recv_from(PartyId(2)), Ok(22));
        let env = receiver.try_recv().expect("no error").expect("buffered");
        assert_eq!((env.from, env.payload), (PartyId(1), 11));
        assert_eq!(receiver.try_recv(), Ok(None));
    }

    #[test]
    fn try_recv_after_the_peer_disconnected() {
        let (mut eps, _h) = Network::<u8>::mesh(2);
        let peer = eps.remove(1);
        peer.send(PartyId(0), 5).expect("send");
        drop(peer);
        let ep = &mut eps[0];
        // What the peer sent before leaving is still delivered; after that
        // there is nothing, and no error: every endpoint holds a sender to
        // its own channel, so it never disconnects.
        let env = ep.try_recv().expect("no error").expect("delivered");
        assert_eq!((env.from, env.payload), (PartyId(1), 5));
        assert_eq!(ep.try_recv(), Ok(None));
        assert_eq!(ep.send(PartyId(1), 6), Err(NetError::Disconnected));
    }

    #[test]
    fn recv_from_timeout_times_out_on_wrong_sender() {
        let (eps, _h) = Network::<u8>::mesh(3);
        let results = run_parties(eps, |mut ep| match ep.id().0 {
            0 => {
                // Party 1 sends, party 2 stays silent: waiting on 2 times out
                // while 1's message stays buffered for later.
                let r = ep.recv_from_timeout(PartyId(2), Duration::from_millis(50));
                assert_eq!(r, Err(NetError::Timeout));
                ep.recv_from(PartyId(1)).expect("buffered message from 1")
            }
            1 => {
                ep.send(PartyId(0), 42).expect("send");
                0
            }
            _ => 0,
        });
        assert_eq!(results[0], 42);
    }

    #[test]
    fn delayed_message_past_timeout_surfaces_later() {
        let plan = FaultPlan::seeded(11).with_delay(1.0, Duration::from_millis(60));
        let (eps, _h) = Network::<u8>::mesh_with(2, plan, false);
        let _ = run_parties(eps, |mut ep| {
            if ep.id().0 == 0 {
                ep.send(PartyId(1), 9).expect("send");
            } else {
                // Give the wire time to arrive in the channel, then poll with
                // a window shorter than any possible residual delay sleep.
                let mut got = None;
                for _ in 0..100 {
                    match ep.recv_timeout(Duration::from_millis(5)) {
                        Ok(env) => {
                            got = Some(env.payload);
                            break;
                        }
                        Err(NetError::Timeout) => continue,
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
                assert_eq!(got, Some(9), "delayed message never surfaced");
            }
        });
    }

    #[test]
    fn error_display() {
        assert_eq!(
            NetError::SelfSend.to_string(),
            "a party cannot send to itself"
        );
        assert!(NetError::UnknownParty(PartyId(3))
            .to_string()
            .contains("party#3"));
    }
}
