//! Concurrent open-loop overload driver (E22).
//!
//! Drives a [`ConcurrentServer`] from `lanes` independent worker threads
//! against a precomputed arrival schedule — lane `w` owns arrivals
//! `w, w + lanes, w + 2·lanes, …` and sleeps/yields until each one's
//! scheduled instant before calling `decide`. The discipline stays
//! open-loop: the
//! offered times are fixed up front, so a lane that falls behind its own
//! schedule is carrying queueing delay, and that delay spends the
//! request's deadline budget.
//!
//! The lane count is deliberately set *above* the server's in-flight
//! limit when probing overload: while offered load fits capacity most
//! lanes sit idle waiting for their slots, but during a square-wave
//! overdrive burst more lanes go active than the admission gate allows,
//! and the excess comes back as typed [`ShedReason::Overloaded`]
//! decisions — the behaviour E22 prices. Accepted (actually evaluated)
//! decisions record scheduled-arrival → completion latency; sheds are
//! tallied by reason, never mixed into the accepted percentiles.

use std::time::{Duration, Instant};

use jaap_coalition::concurrent::ConcurrentServer;
use jaap_coalition::request::JointAccessRequest;
use jaap_coalition::server::ShedReason;
use jaap_obs::Histogram;

use crate::loadgen::{arrival_schedule, BurstProfile};

/// Overload-driver parameters.
#[derive(Debug, Clone, Copy)]
pub struct OverloadConfig {
    /// Arrivals to offer.
    pub requests: usize,
    /// Base arrival rate (requests per second).
    pub rate_per_sec: f64,
    /// Square-wave overdrive bursts layered on the base rate.
    pub burst: Option<BurstProfile>,
    /// Per-request deadline budget from the scheduled arrival.
    pub deadline: Option<Duration>,
    /// Driver threads. Set above the server's in-flight limit to let
    /// bursts actually hit the admission gate.
    pub lanes: usize,
}

/// What one overload run measured.
#[derive(Debug, Clone)]
pub struct OverloadReport {
    /// Arrivals offered (`== config.requests`).
    pub offered: usize,
    /// Evaluated and granted.
    pub granted: usize,
    /// Evaluated and denied by policy.
    pub denied: usize,
    /// Shed at the admission gate (typed `Overloaded`).
    pub shed_overloaded: usize,
    /// Shed at a deadline phase boundary (typed `DeadlineExceeded`).
    pub shed_deadline: usize,
    /// Shed for any other typed reason (e.g. poisoned journal).
    pub shed_other: usize,
    /// Accepted-decision latency percentiles, scheduled arrival →
    /// completion (µs). Sheds are excluded — they are refusals, not
    /// service.
    pub accepted_p50_us: u64,
    /// 99th percentile accepted latency (µs).
    pub accepted_p99_us: u64,
    /// Worst accepted latency (µs).
    pub accepted_max_us: u64,
    /// Evaluated decisions per wall-clock second (the goodput).
    pub accepted_rps: f64,
    /// Whole-run wall time (seconds).
    pub elapsed_s: f64,
}

impl OverloadReport {
    /// Decisions that were actually evaluated (granted or denied).
    #[must_use]
    pub fn accepted(&self) -> usize {
        self.granted + self.denied
    }

    /// All typed sheds.
    #[must_use]
    pub fn shed(&self) -> usize {
        self.shed_overloaded + self.shed_deadline + self.shed_other
    }
}

/// Per-lane tally, merged after the scope joins.
#[derive(Debug, Default, Clone, Copy)]
struct LaneTally {
    granted: usize,
    denied: usize,
    shed_overloaded: usize,
    shed_deadline: usize,
    shed_other: usize,
}

/// Drives `server` open-loop from `config.lanes` threads, drawing
/// requests round-robin from the pre-built (already signed) `pool`.
///
/// The caller configures the server first — in-flight limit, replay
/// protection off (pool requests repeat), caches as desired.
///
/// # Panics
///
/// Panics when `pool` is empty or `lanes` is zero.
#[must_use]
pub fn run_overload(
    server: &ConcurrentServer,
    pool: &[JointAccessRequest],
    config: &OverloadConfig,
) -> OverloadReport {
    assert!(!pool.is_empty(), "overload driver needs a request pool");
    assert!(config.lanes > 0, "overload driver needs at least one lane");
    let offsets = arrival_schedule(config.requests, config.rate_per_sec, config.burst.as_ref());
    let accepted_latency = Histogram::new();

    let start = Instant::now();
    let tallies: Vec<LaneTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.lanes)
            .map(|lane| {
                let offsets = &offsets;
                let accepted_latency = &accepted_latency;
                scope.spawn(move || {
                    let mut tally = LaneTally::default();
                    let mut i = lane;
                    while i < offsets.len() {
                        let scheduled = start + offsets[i];
                        // Sleep the bulk of the wait, then yield: lanes
                        // must not busy-spin a core the deciding lane
                        // needs (open-loop drivers outnumber cores on
                        // small boxes). Oversleep lands as queueing
                        // delay, which the deadline budget then prices.
                        loop {
                            let now = Instant::now();
                            if now >= scheduled {
                                break;
                            }
                            let remaining = scheduled - now;
                            if remaining > Duration::from_micros(500) {
                                std::thread::sleep(remaining - Duration::from_micros(300));
                            } else {
                                std::thread::yield_now();
                            }
                        }
                        let decision = match config.deadline {
                            Some(budget) => {
                                let req = pool[i % pool.len()]
                                    .clone()
                                    .with_deadline(scheduled + budget);
                                server.decide(&req)
                            }
                            None => server.decide(&pool[i % pool.len()]),
                        };
                        match decision.shed {
                            Some(ShedReason::Overloaded) => tally.shed_overloaded += 1,
                            Some(ShedReason::DeadlineExceeded) => tally.shed_deadline += 1,
                            Some(_) => tally.shed_other += 1,
                            None => {
                                accepted_latency.record_duration(scheduled.elapsed());
                                if decision.granted {
                                    tally.granted += 1;
                                } else {
                                    tally.denied += 1;
                                }
                            }
                        }
                        i += config.lanes;
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("overload lane"))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();

    let mut merged = LaneTally::default();
    for t in &tallies {
        merged.granted += t.granted;
        merged.denied += t.denied;
        merged.shed_overloaded += t.shed_overloaded;
        merged.shed_deadline += t.shed_deadline;
        merged.shed_other += t.shed_other;
    }
    let snap = accepted_latency.snapshot();
    let accepted = merged.granted + merged.denied;
    OverloadReport {
        offered: config.requests,
        granted: merged.granted,
        denied: merged.denied,
        shed_overloaded: merged.shed_overloaded,
        shed_deadline: merged.shed_deadline,
        shed_other: merged.shed_other,
        accepted_p50_us: snap.p50 / 1_000,
        accepted_p99_us: snap.p99 / 1_000,
        accepted_max_us: snap.max / 1_000,
        accepted_rps: accepted as f64 / elapsed_s,
        elapsed_s,
    }
}

/// Measures the server's closed-loop single-rate capacity: `lanes`
/// threads decide `requests` pool entries flat-out, no schedule, no
/// deadlines. The returned rate is the calibration baseline the E22
/// goodput floor is expressed against.
///
/// # Panics
///
/// Panics when `pool` is empty or `lanes` is zero.
#[must_use]
pub fn calibrate_capacity(
    server: &ConcurrentServer,
    pool: &[JointAccessRequest],
    requests: usize,
    lanes: usize,
) -> f64 {
    assert!(!pool.is_empty() && lanes > 0, "bad calibration inputs");
    let start = Instant::now();
    std::thread::scope(|scope| {
        for lane in 0..lanes {
            scope.spawn(move || {
                let mut i = lane;
                while i < requests {
                    let _ = server.decide(&pool[i % pool.len()]);
                    i += lanes;
                }
            });
        }
    });
    requests as f64 / start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard_coalition;
    use jaap_core::protocol::Operation;

    #[test]
    fn overdriven_run_sheds_typed_and_accepted_books_balance() {
        let mut c = standard_coalition(192, 0xE22);
        c.server_mut().set_replay_protection(false).expect("config");
        let req = c
            .build_request(&["User_D1", "User_D2"], Operation::new("read", "Object O"))
            .expect("request");
        let server = ConcurrentServer::new(c.into_server());
        server.set_inflight_limit(1);
        let config = OverloadConfig {
            requests: 64,
            rate_per_sec: 100_000.0,
            burst: None,
            deadline: None,
            lanes: 4,
        };
        // Occupy the gate's only slot for the whole run: every arrival
        // must come back as a typed Overloaded shed, never queued. (A
        // held permit, not scheduling luck, makes this deterministic on
        // any core count.)
        let hold = server.acquire_slot().expect("empty gate");
        let report = run_overload(&server, std::slice::from_ref(&req), &config);
        assert_eq!(report.offered, 64);
        assert_eq!(report.shed_overloaded, 64, "full gate sheds every arrival");
        assert_eq!(report.accepted(), 0);
        assert_eq!(report.shed_other, 0);
        // The lock-free shed path audits into the bounded ring, typed.
        let shed_lines = server.shed_audit();
        assert_eq!(shed_lines.len(), report.shed());
        assert!(shed_lines.iter().all(|e| e.shed.is_some() && !e.granted));

        // Release the slot: the same offered load is now served — the
        // first decide against an empty gate is always admitted, and
        // every arrival still books as exactly one accept or shed.
        drop(hold);
        let report = run_overload(&server, &[req], &config);
        assert_eq!(
            report.accepted() + report.shed(),
            64,
            "every arrival accounted"
        );
        assert!(report.accepted() > 0, "the admitted lane must serve");
        assert_eq!(report.shed_other, 0);
    }
}
