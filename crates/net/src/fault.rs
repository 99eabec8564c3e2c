//! Fault-injection policy applied on the send path.
//!
//! A [`FaultPlan`] composes four orthogonal fault classes, all evaluated
//! deterministically from the plan's seed so any failing run can be replayed
//! exactly:
//!
//! * **probabilistic loss** — each message is independently dropped with
//!   `drop_prob` or replayed (delivered twice) with `duplicate_prob`;
//! * **probabilistic delay** — each message is independently held back for a
//!   uniform duration in `(0, max_delay]` with `delay_prob`;
//! * **crash-stop parties** — a party listed in `crashes` dies after its
//!   `after_sends`-th outbound message and is silently mute from then on;
//! * **link partitions** — message flow across severed party pairs is
//!   blocked in both directions.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A crash-stop failure: the party completes `after_sends` sends and then
/// dies, never transmitting again (receivers observe only silence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crash {
    /// Index of the party that crashes.
    pub(crate) party: usize,
    /// Number of successful sends before the crash takes effect.
    pub(crate) after_sends: u64,
}

/// What the simulated environment does to messages in flight.
///
/// Probabilities are evaluated independently per message with a deterministic
/// seeded RNG, so a failing test can be replayed exactly. Construct with
/// [`FaultPlan::reliable`] and the `with_*` builders (which validate
/// eagerly), or as a struct literal — in which case
/// `FaultPlan::validate` runs when the plan is installed into a network.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Probability in `[0, 1]` that a message is silently dropped.
    pub drop_prob: f64,
    /// Probability in `[0, 1]` that a delivered message is delivered twice
    /// (a replay, in the paper's threat vocabulary).
    pub duplicate_prob: f64,
    /// Probability in `[0, 1]` that a message is delayed before delivery.
    pub delay_prob: f64,
    /// Upper bound on an injected delay; the actual delay is uniform in
    /// `(0, max_delay]`. Must be nonzero when `delay_prob > 0`.
    pub max_delay: Duration,
    /// Crash-stop schedule, at most one entry per party.
    pub crashes: Vec<Crash>,
    /// Severed links: messages between the two parties of each pair are
    /// blocked in both directions.
    pub severed: Vec<(usize, usize)>,
    /// Seed for the fault RNG.
    pub seed: u64,
}

impl FaultPlan {
    /// A reliable network: nothing is dropped, replayed, delayed or blocked.
    #[must_use]
    pub fn reliable() -> Self {
        FaultPlan {
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            delay_prob: 0.0,
            max_delay: Duration::ZERO,
            crashes: Vec::new(),
            severed: Vec::new(),
            seed: 0,
        }
    }

    /// A reliable plan carrying a seed, as a base for the `with_*` builders.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::reliable()
        }
    }

    /// Sets the drop probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` or the combined fault probability
    /// exceeds 1.
    #[must_use]
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop_prob = p;
        self.validate().expect("invalid FaultPlan");
        self
    }

    /// Sets the duplicate (replay) probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` or the combined fault probability
    /// exceeds 1.
    #[must_use]
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate_prob = p;
        self.validate().expect("invalid FaultPlan");
        self
    }

    /// Sets the delay probability and the maximum injected delay.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`, the combined fault probability
    /// exceeds 1, or `p > 0` with a zero `max_delay`.
    #[must_use]
    pub fn with_delay(mut self, p: f64, max_delay: Duration) -> Self {
        self.delay_prob = p;
        self.max_delay = max_delay;
        self.validate().expect("invalid FaultPlan");
        self
    }

    /// Schedules `party` to crash after `after_sends` outbound messages.
    /// `after_sends == 0` means the party is dead from the start.
    ///
    /// # Panics
    ///
    /// Panics if the party already has a crash entry.
    #[must_use]
    pub fn with_crash(mut self, party: usize, after_sends: u64) -> Self {
        assert!(
            self.crashes.iter().all(|c| c.party != party),
            "party {party} already has a crash entry"
        );
        self.crashes.push(Crash { party, after_sends });
        self
    }

    /// Severs every link between a party in `a` and a party in `b`
    /// (both directions), partitioning the two groups from each other.
    #[must_use]
    pub fn with_partition(mut self, a: &[usize], b: &[usize]) -> Self {
        for &x in a {
            for &y in b {
                assert!(x != y, "party {x} cannot be partitioned from itself");
                self.severed.push((x, y));
            }
        }
        self
    }

    /// Checks the plan's probabilities and delay bound.
    ///
    /// # Errors
    ///
    /// Describes the first violated constraint: a probability outside
    /// `[0, 1]` (or non-finite), a combined per-message fault probability
    /// above 1, or a positive `delay_prob` with a zero `max_delay`.
    pub(crate) fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("drop_prob", self.drop_prob),
            ("duplicate_prob", self.duplicate_prob),
            ("delay_prob", self.delay_prob),
        ] {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} {p} outside [0, 1]"));
            }
        }
        let combined = self.drop_prob + self.duplicate_prob + self.delay_prob;
        if combined > 1.0 {
            return Err(format!("combined fault probability {combined} exceeds 1"));
        }
        if self.delay_prob > 0.0 && self.max_delay.is_zero() {
            return Err("delay_prob > 0 requires a nonzero max_delay".into());
        }
        Ok(())
    }

    /// Returns `true` if the plan can never interfere with delivery.
    #[must_use]
    pub(crate) fn is_reliable(&self) -> bool {
        self.drop_prob == 0.0
            && self.duplicate_prob == 0.0
            && self.delay_prob == 0.0
            && self.crashes.is_empty()
            && self.severed.is_empty()
    }

    /// The send budget of `party` before it crash-stops, if scheduled.
    #[must_use]
    pub(crate) fn crash_limit(&self, party: usize) -> Option<u64> {
        self.crashes
            .iter()
            .find(|c| c.party == party)
            .map(|c| c.after_sends)
    }

    /// Whether the link between `a` and `b` is severed (either direction).
    #[must_use]
    pub(crate) fn is_severed(&self, a: usize, b: usize) -> bool {
        self.severed
            .iter()
            .any(|&(x, y)| (x == a && y == b) || (x == b && y == a))
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::reliable()
    }
}

/// Per-message fate decided by the fault RNG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fate {
    Deliver,
    Drop,
    Duplicate,
    Delay(Duration),
}

pub(crate) struct FaultRng {
    plan: FaultPlan,
    rng: StdRng,
}

impl FaultRng {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let rng = StdRng::seed_from_u64(plan.seed);
        FaultRng { plan, rng }
    }

    pub(crate) fn decide(&mut self) -> Fate {
        if self.plan.is_reliable() {
            return Fate::Deliver;
        }
        let roll = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        if roll < self.plan.drop_prob {
            Fate::Drop
        } else if roll < self.plan.drop_prob + self.plan.duplicate_prob {
            Fate::Duplicate
        } else if roll < self.plan.drop_prob + self.plan.duplicate_prob + self.plan.delay_prob {
            let max_ms = self.plan.max_delay.as_millis().max(1) as u64;
            let ms = 1 + self.rng.next_u64() % max_ms;
            Fate::Delay(Duration::from_millis(ms))
        } else {
            Fate::Deliver
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_plan_always_delivers() {
        let mut rng = FaultRng::new(FaultPlan::reliable());
        for _ in 0..100 {
            assert_eq!(rng.decide(), Fate::Deliver);
        }
    }

    #[test]
    fn drop_probability_one_always_drops() {
        let mut rng = FaultRng::new(FaultPlan::seeded(3).with_drop(1.0));
        for _ in 0..100 {
            assert_eq!(rng.decide(), Fate::Drop);
        }
    }

    #[test]
    fn duplicate_probability_one_always_duplicates() {
        let mut rng = FaultRng::new(FaultPlan::seeded(3).with_duplicate(1.0));
        for _ in 0..100 {
            assert_eq!(rng.decide(), Fate::Duplicate);
        }
    }

    #[test]
    fn delay_probability_one_always_delays_within_bound() {
        let max = Duration::from_millis(20);
        let mut rng = FaultRng::new(FaultPlan::seeded(5).with_delay(1.0, max));
        for _ in 0..100 {
            match rng.decide() {
                Fate::Delay(d) => assert!(d > Duration::ZERO && d <= max, "delay {d:?}"),
                other => panic!("expected delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn mixed_plan_produces_all_fates_deterministically() {
        let plan = FaultPlan::seeded(42)
            .with_drop(0.25)
            .with_duplicate(0.25)
            .with_delay(0.25, Duration::from_millis(5));
        let fates: Vec<Fate> = {
            let mut rng = FaultRng::new(plan.clone());
            (0..200).map(|_| rng.decide()).collect()
        };
        assert!(fates.contains(&Fate::Deliver));
        assert!(fates.contains(&Fate::Drop));
        assert!(fates.contains(&Fate::Duplicate));
        assert!(fates.iter().any(|f| matches!(f, Fate::Delay(_))));
        // Same seed, same fates.
        let mut rng2 = FaultRng::new(plan);
        let fates2: Vec<Fate> = (0..200).map(|_| rng2.decide()).collect();
        assert_eq!(fates, fates2);
    }

    #[test]
    fn validate_rejects_out_of_range_probabilities() {
        let plan = FaultPlan {
            drop_prob: 1.7,
            ..FaultPlan::reliable()
        };
        let err = plan.validate().expect_err("1.7 must be rejected");
        assert!(err.contains("drop_prob"), "err = {err}");
        assert!(FaultPlan {
            duplicate_prob: -0.1,
            ..FaultPlan::reliable()
        }
        .validate()
        .is_err());
        assert!(FaultPlan {
            delay_prob: f64::NAN,
            ..FaultPlan::reliable()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn validate_rejects_combined_probability_above_one() {
        let plan = FaultPlan {
            drop_prob: 0.6,
            duplicate_prob: 0.6,
            ..FaultPlan::reliable()
        };
        assert!(plan.validate().unwrap_err().contains("combined"));
    }

    #[test]
    fn validate_rejects_delay_without_bound() {
        let plan = FaultPlan {
            delay_prob: 0.5,
            ..FaultPlan::reliable()
        };
        assert!(plan.validate().unwrap_err().contains("max_delay"));
    }

    #[test]
    #[should_panic(expected = "invalid FaultPlan")]
    fn builder_rejects_bad_probability_eagerly() {
        let _ = FaultPlan::reliable().with_drop(1.7);
    }

    #[test]
    #[should_panic(expected = "already has a crash entry")]
    fn duplicate_crash_entry_rejected() {
        let _ = FaultPlan::reliable().with_crash(1, 4).with_crash(1, 9);
    }

    #[test]
    fn partition_severs_all_cross_links_both_directions() {
        let plan = FaultPlan::reliable().with_partition(&[0, 1], &[2, 3]);
        for a in [0, 1] {
            for b in [2, 3] {
                assert!(plan.is_severed(a, b));
                assert!(plan.is_severed(b, a));
            }
        }
        assert!(!plan.is_severed(0, 1));
        assert!(!plan.is_severed(2, 3));
        assert!(!plan.is_reliable());
    }

    #[test]
    fn crash_limit_reports_schedule() {
        let plan = FaultPlan::reliable().with_crash(2, 5);
        assert_eq!(plan.crash_limit(2), Some(5));
        assert_eq!(plan.crash_limit(0), None);
        assert!(!plan.is_reliable());
    }
}
