//! Network construction and the party-thread harness.

use std::fmt::Debug;
use std::sync::Arc;

use crossbeam_channel::unbounded;
use jaap_obs::bounded::Ring;
use jaap_obs::{Counter, MetricsRegistry};
use parking_lot::Mutex;

use crate::endpoint::{Endpoint, NetError, Wire};
use crate::fault::{FaultPlan, FaultRng};
use crate::transcript::TranscriptEntry;

/// Default bound on the recorded transcript, in entries. Long chaos runs
/// used to grow the transcript without limit; now the oldest entries are
/// evicted past this capacity and counted, matching the bounded-cache
/// convention used by the verify and replay caches.
pub const DEFAULT_TRANSCRIPT_CAPACITY: usize = 4096;

/// Aggregate statistics for a network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Messages handed to `send`/`broadcast` (before faults).
    pub messages_sent: u64,
    /// Messages actually delivered (a duplicate counts twice).
    pub messages_delivered: u64,
    /// Messages dropped by the fault plan.
    pub messages_dropped: u64,
    /// Messages delivered twice.
    pub messages_duplicated: u64,
    /// Messages delivered late because of an injected delay.
    pub messages_delayed: u64,
    /// Messages suppressed by a severed link or a crashed sender.
    pub messages_blocked: u64,
    /// Parties that have crash-stopped (exhausted their send budget).
    pub parties_crashed: u64,
    /// Timed receives (`recv_timeout`, `recv_from_timeout`) that expired
    /// with nothing to return: the idle waits a protocol spent on loss.
    /// A `try_recv` that finds nothing is not counted.
    pub receive_timeouts: u64,
}

/// Pre-resolved per-link counters for an observed mesh: one row per
/// directed `(from, to)` pair, indexed `from * n + to`. Resolving them at
/// mesh-construction time keeps the send path at atomic increments only.
#[derive(Debug, Clone)]
pub(crate) struct LinkMetrics {
    pub(crate) delivered: Arc<Counter>,
    pub(crate) dropped: Arc<Counter>,
    pub(crate) delayed: Arc<Counter>,
    pub(crate) duplicated: Arc<Counter>,
    pub(crate) blocked: Arc<Counter>,
}

pub(crate) struct Shared {
    pub(crate) seq: Mutex<u64>,
    pub(crate) stats: Mutex<NetworkStats>,
    /// The recorded transcript: the newest entries, oldest evicted first.
    pub(crate) transcript: Mutex<Ring<TranscriptEntry>>,
    pub(crate) faults: Mutex<FaultRng>,
    pub(crate) plan: FaultPlan,
    /// Per-party outbound send attempts (drives the crash-stop schedule).
    pub(crate) sent_by: Mutex<Vec<u64>>,
    /// Which parties have already crash-stopped (so each is counted once).
    pub(crate) crashed: Mutex<Vec<bool>>,
    pub(crate) record_transcript: bool,
    /// Per-link counters, present only on observed meshes.
    pub(crate) links: Option<Vec<LinkMetrics>>,
}

impl Shared {
    /// The metrics row for the `from → to` link, when observed.
    pub(crate) fn link(&self, from: usize, to: usize, n: usize) -> Option<&LinkMetrics> {
        self.links.as_ref().and_then(|rows| rows.get(from * n + to))
    }
}

/// Constructor namespace for simulated networks; see [`Network::mesh`].
#[derive(Debug)]
pub struct Network<M> {
    _marker: core::marker::PhantomData<M>,
}

/// Inspection handle held by the test/bench harness while parties run.
#[derive(Clone)]
pub struct NetworkHandle {
    shared: Arc<Shared>,
}

impl NetworkHandle {
    /// Snapshot of the statistics so far.
    #[must_use]
    pub fn stats(&self) -> NetworkStats {
        *self.shared.stats.lock()
    }

    /// Snapshot of the transcript so far (empty unless recording was enabled
    /// via [`Network::mesh_with`]). Only the newest entries up to the
    /// buffer's capacity are retained; see
    /// [`NetworkHandle::transcript_dropped`].
    #[must_use]
    pub fn transcript(&self) -> Vec<TranscriptEntry> {
        self.shared.transcript.lock().as_deque().clone().into()
    }

    /// Entries evicted (or refused, at capacity 0) from the bounded
    /// transcript buffer so far.
    #[must_use]
    pub fn transcript_dropped(&self) -> u64 {
        self.shared.transcript.lock().evictions()
    }

    /// Re-bounds the transcript buffer, evicting oldest entries
    /// immediately if the new capacity is smaller than the current length.
    pub fn set_transcript_capacity(&self, capacity: usize) {
        self.shared.transcript.lock().set_capacity(capacity);
    }
}

impl core::fmt::Debug for NetworkHandle {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("NetworkHandle")
            .field("stats", &self.stats())
            .finish()
    }
}

impl<M: Clone + Debug + Send + 'static> Network<M> {
    /// Builds a reliable fully connected mesh of `n` parties.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn mesh(n: usize) -> (Vec<Endpoint<M>>, NetworkHandle) {
        Self::mesh_with(n, FaultPlan::reliable(), false)
    }

    /// Builds a mesh with a fault plan and optional transcript recording.
    ///
    /// This is the panicking convenience wrapper around
    /// [`Network::try_mesh_with`]; library consumers that construct meshes
    /// from caller-supplied fault plans should use the `try_` form and
    /// handle the error instead.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, if [`FaultPlan::validate`] rejects the plan
    /// (e.g. a probability outside `[0, 1]`), or if a crash or partition
    /// entry names a party outside `0..n`.
    #[must_use]
    pub fn mesh_with(
        n: usize,
        faults: FaultPlan,
        record_transcript: bool,
    ) -> (Vec<Endpoint<M>>, NetworkHandle) {
        match Self::try_mesh_with(n, faults, record_transcript) {
            Ok(mesh) => mesh,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds a mesh with a fault plan and optional transcript recording,
    /// rejecting invalid configurations with [`NetError::InvalidMesh`]
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidMesh`] when `n == 0`, when
    /// [`FaultPlan::validate`] rejects the plan (e.g. a probability outside
    /// `[0, 1]`), or when a crash or partition entry names a party outside
    /// `0..n`.
    pub fn try_mesh_with(
        n: usize,
        faults: FaultPlan,
        record_transcript: bool,
    ) -> Result<(Vec<Endpoint<M>>, NetworkHandle), NetError> {
        Self::build_mesh(n, faults, record_transcript, None)
    }

    /// Like [`Network::try_mesh_with`], but additionally records per-link
    /// delivery outcomes into `metrics`: for every directed pair the
    /// counters `net.link.{from}->{to}.{delivered,dropped,delayed,
    /// duplicated,blocked}` are resolved up front, so the send path only
    /// performs atomic increments.
    ///
    /// # Errors
    ///
    /// See [`Network::try_mesh_with`].
    pub fn try_mesh_observed(
        n: usize,
        faults: FaultPlan,
        record_transcript: bool,
        metrics: &MetricsRegistry,
    ) -> Result<(Vec<Endpoint<M>>, NetworkHandle), NetError> {
        Self::build_mesh(n, faults, record_transcript, Some(metrics))
    }

    fn build_mesh(
        n: usize,
        faults: FaultPlan,
        record_transcript: bool,
        metrics: Option<&MetricsRegistry>,
    ) -> Result<(Vec<Endpoint<M>>, NetworkHandle), NetError> {
        if n == 0 {
            return Err(NetError::InvalidMesh(
                "a network needs at least one party".into(),
            ));
        }
        if let Err(why) = faults.validate() {
            return Err(NetError::InvalidMesh(format!("invalid FaultPlan: {why}")));
        }
        for c in &faults.crashes {
            if c.party >= n {
                return Err(NetError::InvalidMesh(format!(
                    "crash entry names unknown party {}",
                    c.party
                )));
            }
        }
        for &(a, b) in &faults.severed {
            if a >= n || b >= n {
                return Err(NetError::InvalidMesh(format!(
                    "partition names unknown party ({a}, {b})"
                )));
            }
        }
        let links = metrics.map(|registry| {
            (0..n * n)
                .map(|idx| {
                    let (from, to) = (idx / n, idx % n);
                    let name = |kind: &str| format!("net.link.{from}->{to}.{kind}");
                    LinkMetrics {
                        delivered: registry.counter(&name("delivered")),
                        dropped: registry.counter(&name("dropped")),
                        delayed: registry.counter(&name("delayed")),
                        duplicated: registry.counter(&name("duplicated")),
                        blocked: registry.counter(&name("blocked")),
                    }
                })
                .collect()
        });
        let shared = Arc::new(Shared {
            seq: Mutex::new(0),
            stats: Mutex::new(NetworkStats::default()),
            transcript: Mutex::new(Ring::new(DEFAULT_TRANSCRIPT_CAPACITY)),
            faults: Mutex::new(FaultRng::new(faults.clone())),
            plan: faults,
            sent_by: Mutex::new(vec![0; n]),
            crashed: Mutex::new(vec![false; n]),
            record_transcript,
            links,
        });
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded::<Wire<M>>();
            senders.push(tx);
            receivers.push(rx);
        }
        let endpoints = receivers
            .into_iter()
            .enumerate()
            .map(|(i, rx)| Endpoint::new(i, n, senders.clone(), rx, Arc::clone(&shared)))
            .collect();
        Ok((endpoints, NetworkHandle { shared }))
    }
}

/// Runs one closure per endpoint on scoped threads, returning results in
/// party order. This is the standard harness for executing a round of a
/// multi-party protocol.
///
/// # Panics
///
/// Propagates any panic from a party thread.
pub fn run_parties<M, R, F>(endpoints: Vec<Endpoint<M>>, f: F) -> Vec<R>
where
    M: Clone + Debug + Send + 'static,
    R: Send,
    F: Fn(Endpoint<M>) -> R + Sync,
{
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|ep| scope.spawn(move || f(ep)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("party thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PartyId;

    #[test]
    fn mesh_assigns_dense_ids() {
        let (eps, _h) = Network::<u32>::mesh(4);
        let ids: Vec<_> = eps.iter().map(Endpoint::id).collect();
        assert_eq!(ids, vec![PartyId(0), PartyId(1), PartyId(2), PartyId(3)]);
        assert!(eps.iter().all(|e| e.n() == 4));
    }

    #[test]
    #[should_panic(expected = "at least one party")]
    fn empty_mesh_panics() {
        let _ = Network::<u32>::mesh(0);
    }

    #[test]
    fn ring_pass_sums_ids() {
        let (eps, handle) = Network::<u64>::mesh(5);
        let results = run_parties(eps, |mut ep| {
            let me = ep.id().0;
            let next = PartyId((me + 1) % ep.n());
            ep.send(next, me as u64).expect("send");
            let env = ep.recv().expect("recv");
            (env.from, env.payload)
        });
        for (i, (from, payload)) in results.iter().enumerate() {
            let expect_from = (i + 5 - 1) % 5;
            assert_eq!(*from, PartyId(expect_from));
            assert_eq!(*payload, expect_from as u64);
        }
        assert_eq!(handle.stats().messages_sent, 5);
        assert_eq!(handle.stats().messages_delivered, 5);
    }

    #[test]
    fn transcript_records_when_enabled() {
        let (eps, handle) = Network::<&'static str>::mesh_with(2, FaultPlan::reliable(), true);
        let _ = run_parties(eps, |mut ep| {
            if ep.id().0 == 0 {
                ep.send(PartyId(1), "hello").expect("send");
                None
            } else {
                Some(ep.recv().expect("recv").payload)
            }
        });
        let t = handle.transcript();
        assert_eq!(t.len(), 1);
        assert!(t[0].payload.contains("hello"));
    }

    #[test]
    fn transcript_bounded_with_oldest_first_eviction() {
        let (eps, handle) = Network::<u64>::mesh_with(2, FaultPlan::reliable(), true);
        handle.set_transcript_capacity(3);
        let _ = run_parties(eps, |mut ep| {
            if ep.id().0 == 0 {
                for v in 0..10u64 {
                    ep.send(PartyId(1), v).expect("send");
                }
            } else {
                for _ in 0..10 {
                    let _ = ep.recv().expect("recv");
                }
            }
        });
        let t = handle.transcript();
        assert_eq!(t.len(), 3);
        assert_eq!(handle.transcript_dropped(), 7);
        // The newest entries survive.
        assert!(t[0].payload.contains('7'));
        assert!(t[2].payload.contains('9'));
    }

    #[test]
    fn transcript_capacity_zero_records_nothing_but_counts() {
        let (eps, handle) = Network::<u8>::mesh_with(2, FaultPlan::reliable(), true);
        handle.set_transcript_capacity(0);
        let _ = run_parties(eps, |mut ep| {
            if ep.id().0 == 0 {
                ep.send(PartyId(1), 1).expect("send");
            } else {
                let _ = ep.recv().expect("recv");
            }
        });
        assert!(handle.transcript().is_empty());
        assert_eq!(handle.transcript_dropped(), 1);
    }

    #[test]
    fn shrinking_transcript_capacity_evicts_immediately() {
        let (eps, handle) = Network::<u64>::mesh_with(2, FaultPlan::reliable(), true);
        let _ = run_parties(eps, |mut ep| {
            if ep.id().0 == 0 {
                for v in 0..5u64 {
                    ep.send(PartyId(1), v).expect("send");
                }
            } else {
                for _ in 0..5 {
                    let _ = ep.recv().expect("recv");
                }
            }
        });
        assert_eq!(handle.transcript().len(), 5);
        handle.set_transcript_capacity(2);
        assert_eq!(handle.transcript().len(), 2);
        assert_eq!(handle.transcript_dropped(), 3);
    }

    #[test]
    fn transcript_empty_when_disabled() {
        let (eps, handle) = Network::<u8>::mesh(2);
        let _ = run_parties(eps, |mut ep| {
            if ep.id().0 == 0 {
                ep.send(PartyId(1), 9).expect("send");
            } else {
                let _ = ep.recv().expect("recv");
            }
        });
        assert!(handle.transcript().is_empty());
        assert_eq!(handle.stats().messages_delivered, 1);
    }

    #[test]
    fn dropped_messages_counted_not_delivered() {
        let plan = FaultPlan::seeded(1).with_drop(1.0);
        let (eps, handle) = Network::<u8>::mesh_with(2, plan, false);
        let _ = run_parties(eps, |mut ep| {
            if ep.id().0 == 0 {
                ep.send(PartyId(1), 1).expect("send");
                ep.send(PartyId(1), 2).expect("send");
            } else {
                assert!(ep
                    .recv_timeout(std::time::Duration::from_millis(50))
                    .is_err());
            }
        });
        let s = handle.stats();
        assert_eq!(s.messages_sent, 2);
        assert_eq!(s.messages_dropped, 2);
        assert_eq!(s.messages_delivered, 0);
    }

    #[test]
    fn duplicated_messages_delivered_twice() {
        let plan = FaultPlan::seeded(1).with_duplicate(1.0);
        let (eps, handle) = Network::<u8>::mesh_with(2, plan, false);
        let _ = run_parties(eps, |mut ep| {
            if ep.id().0 == 0 {
                ep.send(PartyId(1), 7).expect("send");
            } else {
                assert_eq!(ep.recv().expect("first").payload, 7);
                assert_eq!(ep.recv().expect("replay").payload, 7);
            }
        });
        assert_eq!(handle.stats().messages_duplicated, 1);
        assert_eq!(handle.stats().messages_delivered, 2);
    }

    #[test]
    #[should_panic(expected = "invalid FaultPlan")]
    fn mesh_with_rejects_out_of_range_probability() {
        let plan = FaultPlan {
            drop_prob: 1.7,
            ..FaultPlan::reliable()
        };
        let _ = Network::<u8>::mesh_with(2, plan, false);
    }

    #[test]
    #[should_panic(expected = "unknown party")]
    fn mesh_with_rejects_crash_of_unknown_party() {
        let _ = Network::<u8>::mesh_with(2, FaultPlan::reliable().with_crash(7, 0), false);
    }

    #[test]
    fn crashed_party_goes_mute_after_send_budget() {
        let plan = FaultPlan::reliable().with_crash(0, 2);
        let (eps, handle) = Network::<u8>::mesh_with(2, plan, true);
        let _ = run_parties(eps, |mut ep| {
            if ep.id().0 == 0 {
                for v in 0..5 {
                    ep.send(PartyId(1), v).expect("send never errors for crash");
                }
            } else {
                assert_eq!(ep.recv().expect("first").payload, 0);
                assert_eq!(ep.recv().expect("second").payload, 1);
                assert!(ep
                    .recv_timeout(std::time::Duration::from_millis(50))
                    .is_err());
            }
        });
        let s = handle.stats();
        assert_eq!(s.messages_sent, 5);
        assert_eq!(s.messages_delivered, 2);
        assert_eq!(s.messages_blocked, 3);
        assert_eq!(s.parties_crashed, 1);
        use crate::transcript::TranscriptEvent;
        let dead = handle
            .transcript()
            .iter()
            .filter(|e| e.event == TranscriptEvent::DeadSender)
            .count();
        assert_eq!(dead, 3);
    }

    #[test]
    fn partitioned_link_blocks_both_directions() {
        let plan = FaultPlan::reliable().with_partition(&[0], &[1]);
        let (eps, handle) = Network::<u8>::mesh_with(3, plan, true);
        let _ = run_parties(eps, |mut ep| match ep.id().0 {
            0 => {
                ep.send(PartyId(1), 10).expect("blocked send still ok");
                ep.send(PartyId(2), 20).expect("send");
            }
            1 => {
                ep.send(PartyId(0), 30).expect("blocked send still ok");
                assert!(ep
                    .recv_timeout(std::time::Duration::from_millis(50))
                    .is_err());
            }
            _ => {
                assert_eq!(ep.recv().expect("recv").payload, 20);
            }
        });
        let s = handle.stats();
        assert_eq!(s.messages_blocked, 2);
        assert_eq!(s.messages_delivered, 1);
        use crate::transcript::TranscriptEvent;
        let cut = handle
            .transcript()
            .iter()
            .filter(|e| e.event == TranscriptEvent::Partitioned)
            .count();
        assert_eq!(cut, 2);
    }

    #[test]
    fn try_mesh_with_rejects_bad_configurations_without_panicking() {
        let err = Network::<u8>::try_mesh_with(0, FaultPlan::reliable(), false).unwrap_err();
        assert!(matches!(&err, NetError::InvalidMesh(m) if m.contains("at least one party")));

        let plan = FaultPlan {
            drop_prob: 1.7,
            ..FaultPlan::reliable()
        };
        let err = Network::<u8>::try_mesh_with(2, plan, false).unwrap_err();
        assert!(matches!(&err, NetError::InvalidMesh(m) if m.contains("invalid FaultPlan")));

        let err = Network::<u8>::try_mesh_with(2, FaultPlan::reliable().with_crash(7, 0), false)
            .unwrap_err();
        assert!(matches!(&err, NetError::InvalidMesh(m) if m.contains("unknown party 7")));

        let err = Network::<u8>::try_mesh_with(
            2,
            FaultPlan::reliable().with_partition(&[0], &[5]),
            false,
        )
        .unwrap_err();
        assert!(matches!(&err, NetError::InvalidMesh(m) if m.contains("unknown party (0, 5)")));
    }

    #[test]
    fn try_mesh_with_accepts_valid_plans() {
        let (eps, handle) =
            Network::<u8>::try_mesh_with(3, FaultPlan::reliable(), false).expect("valid mesh");
        assert_eq!(eps.len(), 3);
        assert_eq!(handle.stats(), NetworkStats::default());
    }

    #[test]
    fn observed_mesh_records_per_link_counters() {
        let registry = jaap_obs::MetricsRegistry::new();
        let plan = FaultPlan::seeded(1).with_drop(1.0);
        let (eps, handle) =
            Network::<u8>::try_mesh_observed(2, plan, false, &registry).expect("mesh");
        let _ = run_parties(eps, |mut ep| {
            if ep.id().0 == 0 {
                ep.send(PartyId(1), 1).expect("send");
                ep.send(PartyId(1), 2).expect("send");
            } else {
                assert!(ep
                    .recv_timeout(std::time::Duration::from_millis(50))
                    .is_err());
            }
        });
        assert_eq!(handle.stats().messages_dropped, 2);
        assert_eq!(registry.counter_value("net.link.0->1.dropped"), Some(2));
        assert_eq!(registry.counter_value("net.link.0->1.delivered"), Some(0));
        assert_eq!(registry.counter_value("net.link.1->0.dropped"), Some(0));
    }

    #[test]
    fn observed_mesh_counts_blocked_sends_per_link() {
        let registry = jaap_obs::MetricsRegistry::new();
        let plan = FaultPlan::reliable().with_partition(&[0], &[1]);
        let (eps, _handle) =
            Network::<u8>::try_mesh_observed(3, plan, false, &registry).expect("mesh");
        let _ = run_parties(eps, |mut ep| match ep.id().0 {
            0 => {
                ep.send(PartyId(1), 1).expect("blocked send still ok");
                ep.send(PartyId(2), 2).expect("send");
            }
            2 => {
                let _ = ep.recv().expect("recv");
            }
            _ => {}
        });
        assert_eq!(registry.counter_value("net.link.0->1.blocked"), Some(1));
        assert_eq!(registry.counter_value("net.link.0->2.delivered"), Some(1));
    }

    #[test]
    fn delayed_messages_arrive_late_but_arrive() {
        let plan = FaultPlan::seeded(9).with_delay(1.0, std::time::Duration::from_millis(30));
        let (eps, handle) = Network::<u8>::mesh_with(2, plan, false);
        let _ = run_parties(eps, |mut ep| {
            if ep.id().0 == 0 {
                ep.send(PartyId(1), 5).expect("send");
            } else {
                let env = ep
                    .recv_timeout(std::time::Duration::from_secs(2))
                    .expect("delayed message must still arrive");
                assert_eq!(env.payload, 5);
            }
        });
        let s = handle.stats();
        assert_eq!(s.messages_delayed, 1);
        assert_eq!(s.messages_delivered, 1);
    }
}
