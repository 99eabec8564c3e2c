//! Resilient signing sessions: bounded-time joint and threshold signing
//! over a faulty network.
//!
//! The protocols in [`crate::joint`] and [`crate::threshold`] assume the
//! environment eventually delivers every message. This module drops that
//! assumption: a [`SigningSession`] drives the §3.2/§3.3 exchanges with
//!
//! * a **per-round receive timeout** — every network wait is bounded, so no
//!   signing path can hang on a crashed, partitioned, or lossy peer;
//! * **bounded retries with deterministic exponential backoff** — an
//!   unanswered request is re-sent up to [`SessionConfig::max_retries`]
//!   times, waiting `backoff_base · 2^(round-1)` between rounds;
//! * **co-signer failover** (m-of-n only) — the requestor opens the session
//!   against a minimal cohort of `m` signers and, when a cohort member stays
//!   silent, reroutes the request to a standby domain. The combination step
//!   recomputes the Lagrange coefficients from whichever index subset
//!   actually responded, so signing succeeds whenever any `m` domains are
//!   live — the executable form of the paper's §3.3 availability argument.
//!
//! A session that cannot assemble its quorum returns
//! [`CryptoError::QuorumUnreachable`] with exact responsive/needed counts
//! instead of blocking forever, plus a [`SessionReport`] retry trace suitable
//! for an audit log.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use jaap_bigint::Nat;
use jaap_net::{Endpoint, FaultPlan, NetError, Network, NetworkStats, PartyId};
use jaap_obs::{Counter, Histogram, MetricsRegistry};

use crate::joint::{self, SignatureShare};
use crate::rsa::RsaSignature;
use crate::shared::{KeyShare, SharedPublicKey};
use crate::threshold::{self, ThresholdPublic, ThresholdShare, ThresholdSigShare};
use crate::CryptoError;

/// Timeout/retry policy of a signing session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionConfig {
    /// How long the requestor waits for shares in one round before
    /// retrying or failing over.
    pub round_timeout: Duration,
    /// How many retry rounds follow the initial round.
    pub max_retries: u32,
    /// Base of the deterministic exponential backoff: the wait before retry
    /// round `r` is `backoff_base · 2^(r-1)`.
    pub backoff_base: Duration,
}

impl SessionConfig {
    /// A tight policy for tests and benches: short rounds, fast backoff.
    #[must_use]
    pub fn fast() -> Self {
        SessionConfig {
            round_timeout: Duration::from_millis(60),
            max_retries: 3,
            backoff_base: Duration::from_millis(5),
        }
    }

    /// The deterministic wait before retry round `round` (1-based).
    #[must_use]
    pub(crate) fn backoff_for(&self, round: u32) -> Duration {
        // Saturate the shift so a pathological max_retries cannot overflow.
        self.backoff_base * (1u32 << (round - 1).min(16))
    }

    /// Worst-case wall-clock budget of the whole session: the bound
    /// co-signers use for their own receive loop, guaranteeing every party
    /// exits even if the requestor's `Done` notice is lost.
    #[must_use]
    pub(crate) fn session_deadline(&self) -> Duration {
        let rounds = self.max_retries + 2; // initial + retries + slack
        let mut total = self.round_timeout * rounds;
        for r in 1..=self.max_retries {
            total += self.backoff_for(r);
        }
        total
    }
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            round_timeout: Duration::from_millis(200),
            max_retries: 2,
            backoff_base: Duration::from_millis(25),
        }
    }
}

/// What happened during a session: rounds used, failovers performed, and a
/// human-readable retry trace for audit logs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionReport {
    /// Rounds executed (1 = no retries were needed).
    pub rounds: u32,
    /// Failovers performed: `(unresponsive party, standby that replaced it)`.
    pub reroutes: Vec<(usize, usize)>,
    /// Signers whose shares were collected (requestor included).
    pub responsive: Vec<usize>,
    /// One line per recovery action, in order.
    pub(crate) trace: Vec<String>,
}

impl SessionReport {
    /// Single-line rendering for audit logs; empty string when the session
    /// needed no recovery actions.
    #[must_use]
    pub fn summary(&self) -> String {
        self.trace.join("; ")
    }
}

/// Wire messages of a signing session (both compound and threshold modes).
#[derive(Debug, Clone)]
pub(crate) enum SessionMsg {
    /// Requestor → co-signer: message to sign plus the key id (§3.2).
    Request {
        /// Message bytes.
        msg: Vec<u8>,
        /// `SHA-256(N || e)` identifying the key.
        key_id: String,
    },
    /// Co-signer → requestor: its signature share.
    Share(Nat),
    /// Co-signer → requestor: refusal (unknown key id).
    Refuse(String),
    /// Requestor → co-signers: the session is over (success or abort).
    Done,
}

/// Pre-resolved session instruments (see [`MetricsRegistry`]); resolving
/// them once per session keeps the round loop at atomic operations only.
struct SessionMetrics {
    /// Latency of each request/collect round.
    round_ns: Arc<Histogram>,
    /// Rounds used per session (1 = no retries were needed).
    rounds: Arc<Histogram>,
    /// Retry rounds beyond the first.
    retries: Arc<Counter>,
    /// Backoff waits, as recorded durations.
    backoff_ns: Arc<Histogram>,
    /// Co-signer failovers to a standby domain.
    failovers: Arc<Counter>,
    /// Sessions that ended in [`CryptoError::QuorumUnreachable`].
    quorum_failures: Arc<Counter>,
    /// Sessions started.
    sessions: Arc<Counter>,
}

impl SessionMetrics {
    fn resolve(registry: &MetricsRegistry) -> Self {
        SessionMetrics {
            round_ns: registry.histogram("session.round_ns"),
            rounds: registry.histogram("session.rounds"),
            retries: registry.counter("session.retries"),
            backoff_ns: registry.histogram("session.backoff_ns"),
            failovers: registry.counter("session.failovers"),
            quorum_failures: registry.counter("session.quorum_failures"),
            sessions: registry.counter("session.sessions"),
        }
    }
}

/// Namespace for running resilient signing sessions; see the module docs.
#[derive(Debug)]
pub struct SigningSession;

impl SigningSession {
    /// Runs a compound (n-of-n, §3.2) signature over a faulty network with
    /// timeouts and retries. Every co-signer must contribute; there are no
    /// standbys to fail over to, so a crashed or partitioned co-signer makes
    /// the session fail with [`CryptoError::QuorumUnreachable`] after the
    /// retry budget — never by hanging.
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidParameters`] on inconsistent inputs;
    /// [`CryptoError::QuorumUnreachable`] when fewer than `n` signers
    /// responded within the retry budget; combination failures.
    pub fn sign_compound(
        public: &SharedPublicKey,
        shares: &[KeyShare],
        requestor: usize,
        msg: &[u8],
        faults: FaultPlan,
        config: &SessionConfig,
    ) -> Result<(RsaSignature, SessionReport, NetworkStats), CryptoError> {
        let (outcome, report, stats) =
            Self::run_compound(public, shares, requestor, msg, faults, config);
        outcome.map(|sig| (sig, report, stats))
    }

    /// Like [`SigningSession::sign_compound`], but always returns the
    /// [`SessionReport`] and [`NetworkStats`] — even when the session
    /// failed. Callers that audit recovery actions (the coalition server's
    /// retry trace) use this form.
    pub(crate) fn run_compound(
        public: &SharedPublicKey,
        shares: &[KeyShare],
        requestor: usize,
        msg: &[u8],
        faults: FaultPlan,
        config: &SessionConfig,
    ) -> (
        Result<RsaSignature, CryptoError>,
        SessionReport,
        NetworkStats,
    ) {
        Self::run_compound_observed(public, shares, requestor, msg, faults, config, None)
    }

    /// Like `SigningSession::run_compound`, but records session telemetry
    /// — round latencies, retry/backoff waits, failovers, quorum failures —
    /// and per-link network outcomes into `metrics` when one is supplied.
    #[allow(clippy::too_many_arguments)]
    pub fn run_compound_observed(
        public: &SharedPublicKey,
        shares: &[KeyShare],
        requestor: usize,
        msg: &[u8],
        faults: FaultPlan,
        config: &SessionConfig,
        metrics: Option<&MetricsRegistry>,
    ) -> (
        Result<RsaSignature, CryptoError>,
        SessionReport,
        NetworkStats,
    ) {
        let n = public.n_parties();
        if shares.len() != n {
            let err =
                CryptoError::InvalidParameters(format!("need {n} shares, got {}", shares.len()));
            return (Err(err), SessionReport::default(), NetworkStats::default());
        }
        if requestor >= n {
            let err =
                CryptoError::InvalidParameters(format!("requestor index {requestor} out of range"));
            return (Err(err), SessionReport::default(), NetworkStats::default());
        }
        let key_id = public.key_id();
        run_session(
            n,
            n,
            requestor,
            msg,
            &key_id,
            faults,
            config,
            metrics,
            &|index, body| joint::produce_share(&shares[index], body).map(|s| s.value),
            &|collected| {
                let sig_shares: Vec<SignatureShare> = collected
                    .iter()
                    .map(|(&index, value)| SignatureShare {
                        index,
                        value: value.clone(),
                    })
                    .collect();
                joint::combine(public, msg, &sig_shares)
            },
        )
    }

    /// Runs an m-of-n threshold signature (§3.3) over a faulty network with
    /// timeouts, retries, and co-signer failover: the requestor asks a
    /// minimal cohort of `m` signers, reroutes to standby domains when
    /// cohort members stay silent, and combines with Lagrange coefficients
    /// recomputed for whichever subset responded.
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidParameters`] on inconsistent inputs;
    /// [`CryptoError::QuorumUnreachable`] when fewer than `m` signers
    /// responded within the retry budget; combination failures.
    pub fn sign_threshold(
        public: &ThresholdPublic,
        shares: &[ThresholdShare],
        requestor: usize,
        msg: &[u8],
        faults: FaultPlan,
        config: &SessionConfig,
    ) -> Result<(RsaSignature, SessionReport, NetworkStats), CryptoError> {
        let (outcome, report, stats) =
            Self::run_threshold(public, shares, requestor, msg, faults, config);
        outcome.map(|sig| (sig, report, stats))
    }

    /// Like [`SigningSession::sign_threshold`], but always returns the
    /// [`SessionReport`] and [`NetworkStats`] — even when the session
    /// failed.
    pub fn run_threshold(
        public: &ThresholdPublic,
        shares: &[ThresholdShare],
        requestor: usize,
        msg: &[u8],
        faults: FaultPlan,
        config: &SessionConfig,
    ) -> (
        Result<RsaSignature, CryptoError>,
        SessionReport,
        NetworkStats,
    ) {
        Self::run_threshold_observed(public, shares, requestor, msg, faults, config, None)
    }

    /// Like [`SigningSession::run_threshold`], but records session telemetry
    /// — round latencies, retry/backoff waits, failovers, quorum failures —
    /// and per-link network outcomes into `metrics` when one is supplied.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_threshold_observed(
        public: &ThresholdPublic,
        shares: &[ThresholdShare],
        requestor: usize,
        msg: &[u8],
        faults: FaultPlan,
        config: &SessionConfig,
        metrics: Option<&MetricsRegistry>,
    ) -> (
        Result<RsaSignature, CryptoError>,
        SessionReport,
        NetworkStats,
    ) {
        let n = public.parties();
        let m = public.threshold();
        if shares.len() != n {
            let err =
                CryptoError::InvalidParameters(format!("need {n} shares, got {}", shares.len()));
            return (Err(err), SessionReport::default(), NetworkStats::default());
        }
        if requestor >= n {
            let err =
                CryptoError::InvalidParameters(format!("requestor index {requestor} out of range"));
            return (Err(err), SessionReport::default(), NetworkStats::default());
        }
        let key_id = public.rsa().key_id();
        run_session(
            n,
            m,
            requestor,
            msg,
            &key_id,
            faults,
            config,
            metrics,
            &|index, body| shares[index].sign_share(body).map(|s| s.value),
            &|collected| {
                let sig_shares: Vec<ThresholdSigShare> = collected
                    .iter()
                    .map(|(&index, value)| ThresholdSigShare {
                        index,
                        value: value.clone(),
                    })
                    .collect();
                threshold::combine(public, msg, &sig_shares)
            },
        )
    }
}

/// Computes one party's signature share over a message.
type MakeShareFn<'a> = dyn Fn(usize, &[u8]) -> Result<Nat, CryptoError> + Sync + 'a;
/// Combines the collected shares into a full signature.
type CombineFn<'a> = dyn Fn(&BTreeMap<usize, Nat>) -> Result<RsaSignature, CryptoError> + Sync + 'a;

/// Spawns all parties, runs the requestor driver and the co-signer loops,
/// and reconciles the per-party results.
///
/// An invalid fault plan surfaces as [`CryptoError::InvalidParameters`]
/// (via [`Network::try_mesh_with`]) rather than a panic, so library callers
/// with caller-supplied fault plans get an error they can handle.
#[allow(clippy::too_many_arguments)]
fn run_session(
    n: usize,
    needed: usize,
    requestor: usize,
    msg: &[u8],
    key_id: &str,
    faults: FaultPlan,
    config: &SessionConfig,
    metrics: Option<&MetricsRegistry>,
    make_share: &MakeShareFn<'_>,
    combine: &CombineFn<'_>,
) -> (
    Result<RsaSignature, CryptoError>,
    SessionReport,
    NetworkStats,
) {
    let mesh = match metrics {
        Some(registry) => Network::<SessionMsg>::try_mesh_observed(n, faults, false, registry),
        None => Network::<SessionMsg>::try_mesh_with(n, faults, false),
    };
    let (endpoints, handle) = match mesh {
        Ok(mesh) => mesh,
        Err(e) => {
            return (
                Err(CryptoError::InvalidParameters(format!("network: {e}"))),
                SessionReport::default(),
                NetworkStats::default(),
            );
        }
    };
    let session_metrics = metrics.map(SessionMetrics::resolve);
    if let Some(m) = &session_metrics {
        m.sessions.inc();
    }
    let mut results = jaap_net::run_parties(endpoints, |mut ep| {
        let me = ep.id().0;
        if me == requestor {
            Ok(Some(drive(
                &mut ep,
                needed,
                msg,
                key_id,
                config,
                session_metrics.as_ref(),
                make_share,
                combine,
            )))
        } else {
            cosign(&mut ep, PartyId(requestor), key_id, me, config, make_share).map(|()| None)
        }
    });
    let requestor_result = results.swap_remove(requestor);
    match requestor_result {
        Ok(Some((outcome, report))) => {
            // When the requestor failed, a co-signer's own failure (e.g. a
            // share computation error) is the better root cause to surface.
            let outcome = if outcome.is_err() {
                results
                    .into_iter()
                    .find_map(Result::err)
                    .map_or(outcome, Err)
            } else {
                outcome
            };
            (outcome, report, handle.stats())
        }
        // The requestor branch always produces Ok(Some(..)); this arm only
        // exists to satisfy the type.
        _ => (
            Err(CryptoError::Protocol("requestor produced no result".into())),
            SessionReport::default(),
            handle.stats(),
        ),
    }
}

/// Requestor side: request/collect rounds with backoff, failover, and a
/// final `Done` broadcast so co-signers exit promptly. The report is
/// returned alongside the outcome so failed sessions still carry their
/// retry trace and responsive-signer list to the audit log.
#[allow(clippy::too_many_arguments)]
fn drive(
    ep: &mut Endpoint<SessionMsg>,
    needed: usize,
    msg: &[u8],
    key_id: &str,
    config: &SessionConfig,
    metrics: Option<&SessionMetrics>,
    make_share: &MakeShareFn<'_>,
    combine: &CombineFn<'_>,
) -> (Result<RsaSignature, CryptoError>, SessionReport) {
    let mut report = SessionReport::default();
    let mut collected: BTreeMap<usize, Nat> = BTreeMap::new();
    let outcome = collect_quorum(
        ep,
        needed,
        msg,
        key_id,
        config,
        metrics,
        make_share,
        &mut report,
        &mut collected,
    );
    break_session(ep);
    report.responsive = collected.keys().copied().collect();
    if let Some(m) = metrics {
        m.rounds.record(u64::from(report.rounds));
        if matches!(outcome, Err(CryptoError::QuorumUnreachable { .. })) {
            m.quorum_failures.inc();
        }
    }
    let outcome = outcome.and_then(|()| combine(&collected));
    (outcome, report)
}

/// The request/collect round loop: fills `collected` until it holds a
/// quorum or the retry budget runs out.
#[allow(clippy::too_many_arguments)]
fn collect_quorum(
    ep: &mut Endpoint<SessionMsg>,
    needed: usize,
    msg: &[u8],
    key_id: &str,
    config: &SessionConfig,
    metrics: Option<&SessionMetrics>,
    make_share: &MakeShareFn<'_>,
    report: &mut SessionReport,
    collected: &mut BTreeMap<usize, Nat>,
) -> Result<(), CryptoError> {
    let me = ep.id().0;
    let n = ep.n();
    collected.insert(me, make_share(me, msg)?);

    // Minimal cohort: the requestor plus the first `needed - 1` other
    // parties by index; everyone else is a standby, in index order.
    let mut cohort: Vec<usize> = (0..n).filter(|&i| i != me).take(needed - 1).collect();
    let mut standbys: VecDeque<usize> = (0..n).filter(|&i| i != me).skip(needed - 1).collect();

    let request = SessionMsg::Request {
        msg: msg.to_vec(),
        key_id: key_id.to_string(),
    };
    for &p in &cohort {
        send_lossy(ep, p, request.clone())?;
    }

    loop {
        report.rounds += 1;
        let round_started = Instant::now();
        let round_deadline = round_started + config.round_timeout;
        // Drain shares until quorum or the round deadline.
        while collected.len() < needed {
            let Some(budget) = round_deadline
                .checked_duration_since(Instant::now())
                .filter(|b| !b.is_zero())
            else {
                break;
            };
            match ep.recv_timeout(budget) {
                Ok(env) => match env.payload {
                    SessionMsg::Share(value) => {
                        collected.entry(env.from.0).or_insert(value);
                    }
                    SessionMsg::Refuse(reason) => {
                        return Err(CryptoError::Protocol(format!(
                            "co-signer {} refused: {reason}",
                            env.from
                        )));
                    }
                    SessionMsg::Request { .. } | SessionMsg::Done => {}
                },
                Err(NetError::Timeout) => break,
                Err(e) => {
                    return Err(CryptoError::Protocol(format!("network: {e}")));
                }
            }
        }
        if let Some(m) = metrics {
            m.round_ns.record_duration(round_started.elapsed());
        }
        if collected.len() >= needed {
            return Ok(());
        }
        if report.rounds > config.max_retries {
            return Err(CryptoError::QuorumUnreachable {
                responsive: collected.len(),
                needed,
            });
        }
        // Recovery: fail over silent cohort members to standbys where
        // possible, otherwise re-request with backoff.
        let silent: Vec<usize> = cohort
            .iter()
            .copied()
            .filter(|p| !collected.contains_key(p))
            .collect();
        let backoff = config.backoff_for(report.rounds);
        if let Some(m) = metrics {
            m.retries.inc();
            m.backoff_ns.record_duration(backoff);
        }
        std::thread::sleep(backoff);
        for p in silent {
            if let Some(standby) = standbys.pop_front() {
                if let Some(m) = metrics {
                    m.failovers.inc();
                }
                report.reroutes.push((p, standby));
                report.trace.push(format!(
                    "round {}: co-signer {p} unresponsive, failing over to standby {standby}",
                    report.rounds
                ));
                let slot = cohort
                    .iter()
                    .position(|&c| c == p)
                    .expect("member in cohort");
                cohort[slot] = standby;
                send_lossy(ep, standby, request.clone())?;
            } else {
                report.trace.push(format!(
                    "round {}: co-signer {p} unresponsive, re-requesting (no standby left)",
                    report.rounds
                ));
                send_lossy(ep, p, request.clone())?;
            }
        }
    }
}

/// Co-signer side: answer (re-)requests until `Done` arrives or the session
/// deadline expires. Every wait is a `recv_timeout` — a co-signer can never
/// hang on a dead requestor.
fn cosign(
    ep: &mut Endpoint<SessionMsg>,
    requestor: PartyId,
    key_id: &str,
    me: usize,
    config: &SessionConfig,
    make_share: &MakeShareFn<'_>,
) -> Result<(), CryptoError> {
    let deadline = Instant::now() + config.session_deadline();
    // Cache the share so duplicate/retried requests are answered cheaply
    // and identically (idempotent replies).
    let mut cached: Option<(Vec<u8>, Nat)> = None;
    loop {
        let Some(budget) = deadline
            .checked_duration_since(Instant::now())
            .filter(|b| !b.is_zero())
        else {
            return Ok(()); // session over from our perspective
        };
        match ep.recv_timeout(budget) {
            Ok(env) if env.from == requestor => match env.payload {
                SessionMsg::Request { msg, key_id: kid } => {
                    if kid != key_id {
                        let _ = ep.send(requestor, SessionMsg::Refuse("unknown key id".into()));
                        continue;
                    }
                    let value = match &cached {
                        Some((m, v)) if *m == msg => v.clone(),
                        _ => {
                            let v = make_share(me, &msg)?;
                            cached = Some((msg, v.clone()));
                            v
                        }
                    };
                    let _ = ep.send(requestor, SessionMsg::Share(value));
                }
                SessionMsg::Done => return Ok(()),
                SessionMsg::Share(_) | SessionMsg::Refuse(_) => {}
            },
            Ok(_) => {} // stray message from another co-signer
            Err(NetError::Timeout | NetError::Disconnected) => return Ok(()),
            Err(e) => return Err(CryptoError::Protocol(format!("network: {e}"))),
        }
    }
}

/// Sends, treating fault-plan suppression and a departed peer as a lost
/// message (the retry/failover schedule covers both) and any other
/// network-level error as fatal.
fn send_lossy(ep: &Endpoint<SessionMsg>, to: usize, msg: SessionMsg) -> Result<(), CryptoError> {
    match ep.send(PartyId(to), msg) {
        Ok(()) | Err(NetError::Disconnected) => Ok(()),
        Err(e) => Err(CryptoError::Protocol(format!("network: {e}"))),
    }
}

/// Tells every co-signer the session is over (best effort — losses are
/// covered by the co-signers' own deadline).
fn break_session(ep: &Endpoint<SessionMsg>) {
    ep.broadcast(SessionMsg::Done);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsa::RsaKeyPair;
    use crate::shared::SharedRsaKey;
    use crate::threshold::ThresholdKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dealt_compound(n: usize, seed: u64) -> (SharedPublicKey, Vec<KeyShare>) {
        let mut rng = StdRng::seed_from_u64(seed);
        SharedRsaKey::deal(&mut rng, 192, n).expect("deal")
    }

    fn dealt_threshold(m: usize, n: usize, seed: u64) -> (ThresholdPublic, Vec<ThresholdShare>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kp = RsaKeyPair::generate(&mut rng, 192).expect("keygen");
        ThresholdKey::deal(&mut rng, &kp, m, n).expect("deal")
    }

    #[test]
    fn compound_session_on_reliable_network() {
        let (public, shares) = dealt_compound(3, 1);
        let (sig, report, stats) = SigningSession::sign_compound(
            &public,
            &shares,
            0,
            b"session",
            FaultPlan::reliable(),
            &SessionConfig::fast(),
        )
        .expect("sign");
        assert!(public.verify(b"session", &sig));
        assert_eq!(report.rounds, 1);
        assert!(report.reroutes.is_empty());
        assert_eq!(report.responsive, vec![0, 1, 2]);
        // 2 requests + 2 shares + 2 Done notices.
        assert_eq!(stats.messages_sent, 6);
    }

    #[test]
    fn compound_session_retries_through_drops() {
        let (public, shares) = dealt_compound(3, 2);
        // Noticeable loss: retries must eventually get through. With 9
        // attempts per co-signer the failure probability is negligible.
        let faults = FaultPlan::seeded(7).with_drop(0.25);
        let config = SessionConfig {
            round_timeout: Duration::from_millis(50),
            max_retries: 8,
            backoff_base: Duration::from_millis(1),
        };
        let (sig, report, _) =
            SigningSession::sign_compound(&public, &shares, 0, b"lossy", faults, &config)
                .expect("sign despite drops");
        assert!(public.verify(b"lossy", &sig));
        assert!(report.rounds >= 1);
    }

    #[test]
    fn compound_session_fails_fast_with_crashed_cosigner() {
        let (public, shares) = dealt_compound(3, 3);
        // Party 2 is dead from the start: n-of-n can never complete.
        let faults = FaultPlan::reliable().with_crash(2, 0);
        let started = Instant::now();
        let err = SigningSession::sign_compound(
            &public,
            &shares,
            0,
            b"doomed",
            faults,
            &SessionConfig::fast(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            CryptoError::QuorumUnreachable {
                responsive: 2,
                needed: 3
            }
        );
        // Bounded: well under the worst-case session deadline plus slack.
        assert!(started.elapsed() < SessionConfig::fast().session_deadline() * 2);
    }

    #[test]
    fn threshold_session_fails_over_to_standby() {
        let (public, shares) = dealt_threshold(2, 3, 4);
        // Initial cohort for requestor 0 is {1}; party 1 is dead, so the
        // session must fail over to standby 2 and still sign.
        let faults = FaultPlan::reliable().with_crash(1, 0);
        let (sig, report, _) = SigningSession::sign_threshold(
            &public,
            &shares,
            0,
            b"failover",
            faults,
            &SessionConfig::fast(),
        )
        .expect("failover signing");
        assert!(public.verify(b"failover", &sig));
        assert_eq!(report.reroutes, vec![(1, 2)]);
        assert_eq!(report.responsive, vec![0, 2]);
        assert!(report.summary().contains("failing over to standby 2"));
    }

    #[test]
    fn threshold_session_fails_when_quorum_impossible() {
        let (public, shares) = dealt_threshold(3, 4, 5);
        // Only requestor 0 and party 1 are alive: 2 < m = 3.
        let faults = FaultPlan::reliable().with_crash(2, 0).with_crash(3, 0);
        let err = SigningSession::sign_threshold(
            &public,
            &shares,
            0,
            b"short",
            faults,
            &SessionConfig::fast(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            CryptoError::QuorumUnreachable {
                responsive: 2,
                needed: 3
            }
        );
    }

    #[test]
    fn threshold_session_survives_partition_of_cohort_member() {
        let (public, shares) = dealt_threshold(2, 4, 6);
        // The requestor cannot reach party 1 (severed link) but standbys
        // 2 and 3 are reachable.
        let faults = FaultPlan::reliable().with_partition(&[0], &[1]);
        let (sig, report, _) = SigningSession::sign_threshold(
            &public,
            &shares,
            0,
            b"partitioned",
            faults,
            &SessionConfig::fast(),
        )
        .expect("sign around the partition");
        assert!(public.verify(b"partitioned", &sig));
        assert_eq!(report.reroutes.first(), Some(&(1, 2)));
    }

    #[test]
    fn observed_session_records_rounds_failovers_and_link_stats() {
        let (public, shares) = dealt_threshold(2, 3, 4);
        let registry = jaap_obs::MetricsRegistry::new();
        // Party 1 (the initial cohort) is dead: one retry round fails over
        // to standby 2 and the session still signs.
        let faults = FaultPlan::reliable().with_crash(1, 0);
        let (outcome, report, _stats) = SigningSession::run_threshold_observed(
            &public,
            &shares,
            0,
            b"observed",
            faults,
            &SessionConfig::fast(),
            Some(&registry),
        );
        assert!(outcome.is_ok());
        assert_eq!(report.reroutes, vec![(1, 2)]);
        assert_eq!(registry.counter_value("session.sessions"), Some(1));
        assert_eq!(registry.counter_value("session.failovers"), Some(1));
        assert!(registry.counter_value("session.retries").expect("retries") >= 1);
        assert_eq!(registry.counter_value("session.quorum_failures"), Some(0));
        let rounds = registry
            .histogram_snapshot("session.rounds")
            .expect("rounds histogram");
        assert_eq!(rounds.count, 1);
        assert_eq!(rounds.max, u64::from(report.rounds));
        let round_ns = registry
            .histogram_snapshot("session.round_ns")
            .expect("round latency histogram");
        assert_eq!(round_ns.count, u64::from(report.rounds));
        // The observed mesh recorded per-link outcomes: the requestor
        // reached standby 2 at least twice (request + Done notice).
        assert!(
            registry
                .counter_value("net.link.0->2.delivered")
                .expect("link")
                >= 2
        );
    }

    #[test]
    fn observed_session_counts_quorum_failures() {
        let (public, shares) = dealt_compound(3, 3);
        let registry = jaap_obs::MetricsRegistry::new();
        let faults = FaultPlan::reliable().with_crash(2, 0);
        let (outcome, _report, _stats) = SigningSession::run_compound_observed(
            &public,
            &shares,
            0,
            b"doomed",
            faults,
            &SessionConfig::fast(),
            Some(&registry),
        );
        assert!(matches!(
            outcome,
            Err(CryptoError::QuorumUnreachable { .. })
        ));
        assert_eq!(registry.counter_value("session.quorum_failures"), Some(1));
    }

    #[test]
    fn invalid_fault_plan_is_an_error_not_a_panic() {
        let (public, shares) = dealt_compound(3, 8);
        let faults = FaultPlan {
            drop_prob: 2.5,
            ..FaultPlan::reliable()
        };
        let (outcome, report, stats) = SigningSession::run_compound(
            &public,
            &shares,
            0,
            b"bad plan",
            faults,
            &SessionConfig::fast(),
        );
        assert!(matches!(
            outcome,
            Err(CryptoError::InvalidParameters(ref m)) if m.contains("invalid FaultPlan")
        ));
        assert_eq!(report, SessionReport::default());
        assert_eq!(stats, NetworkStats::default());
    }

    #[test]
    fn session_reports_are_deterministic_for_a_seed() {
        let (public, shares) = dealt_threshold(2, 3, 7);
        let run = || {
            SigningSession::sign_threshold(
                &public,
                &shares,
                0,
                b"replay",
                FaultPlan::seeded(99).with_drop(0.3),
                &SessionConfig::fast(),
            )
        };
        match (run(), run()) {
            (Ok((s1, r1, _)), Ok((s2, r2, _))) => {
                assert_eq!(s1, s2);
                assert_eq!(r1.reroutes, r2.reroutes);
            }
            (Err(e1), Err(e2)) => assert_eq!(e1, e2),
            (a, b) => panic!(
                "runs diverged: {:?} vs {:?}",
                a.map(|(_, r, _)| r),
                b.map(|(_, r, _)| r)
            ),
        }
    }

    #[test]
    fn backoff_is_exponential_and_deadline_covers_it() {
        let cfg = SessionConfig {
            round_timeout: Duration::from_millis(100),
            max_retries: 3,
            backoff_base: Duration::from_millis(10),
        };
        assert_eq!(cfg.backoff_for(1), Duration::from_millis(10));
        assert_eq!(cfg.backoff_for(2), Duration::from_millis(20));
        assert_eq!(cfg.backoff_for(3), Duration::from_millis(40));
        let worst = cfg.round_timeout * 4 + Duration::from_millis(70);
        assert!(cfg.session_deadline() >= worst);
    }
}
