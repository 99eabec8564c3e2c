//! Seeded storage-fault injection, in the style of `jaap_net::fault`:
//! probabilities roll against a deterministic PRNG so every chaos run is
//! reproducible from its seed.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::store::JournalStore;
use crate::WalError;

/// What can go wrong between the journal and its medium.
#[derive(Debug, Clone, Copy)]
pub struct StoreFaultPlan {
    /// Seed for the fault PRNG.
    pub(crate) seed: u64,
    /// Probability an append is torn: only a strict prefix reaches the
    /// medium (the classic crash-mid-write).
    pub(crate) torn_write_prob: f64,
    /// Probability an append lands with one random bit flipped.
    pub(crate) bit_flip_prob: f64,
    /// Probability a read returns the log minus a random suffix.
    pub(crate) short_read_prob: f64,
    /// Probability a `reset` (tmp-write + rename) is lost wholesale: the
    /// crash lands after the rename but before the parent directory entry
    /// reaches the medium, so recovery sees the *old* log resurrected.
    pub(crate) reset_lost_prob: f64,
    /// Probability an append's fsync fails *after* a short write reached
    /// the medium, rolled on the seeded PRNG like every other fault.
    /// Durability is then indeterminate, so the store wedges itself and
    /// refuses every later append — the fsyncgate-correct response
    /// (retrying the fsync could report success over silently-dropped
    /// dirty pages).
    pub(crate) sync_fail_prob: f64,
    /// Deterministic schedule: fail the fsync of the append with this
    /// 0-based index (counted across the store's lifetime), regardless of
    /// probability. Composes with `sync_fail_prob`.
    pub(crate) sync_fail_after: Option<u64>,
}

impl StoreFaultPlan {
    /// A fault-free plan with the given seed.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        StoreFaultPlan {
            seed,
            torn_write_prob: 0.0,
            bit_flip_prob: 0.0,
            short_read_prob: 0.0,
            reset_lost_prob: 0.0,
            sync_fail_prob: 0.0,
            sync_fail_after: None,
        }
    }

    /// Sets the torn-write probability.
    #[must_use]
    pub fn with_torn_write(mut self, p: f64) -> Self {
        self.torn_write_prob = p;
        self
    }

    /// Sets the bit-flip probability.
    #[must_use]
    pub fn with_bit_flip(mut self, p: f64) -> Self {
        self.bit_flip_prob = p;
        self
    }

    /// Sets the short-read probability (seen by [`FaultyStore::read_faulty`]).
    #[must_use]
    pub fn with_short_read(mut self, p: f64) -> Self {
        self.short_read_prob = p;
        self
    }

    /// Sets the lost-reset probability (the un-fsynced-directory window).
    #[must_use]
    pub fn with_reset_lost(mut self, p: f64) -> Self {
        self.reset_lost_prob = p;
        self
    }

    /// Sets the fsync-failure probability.
    #[must_use]
    pub fn with_sync_fail(mut self, p: f64) -> Self {
        self.sync_fail_prob = p;
        self
    }

    /// Schedules a deterministic fsync failure on the append with 0-based
    /// index `n`.
    #[must_use]
    pub fn with_sync_fail_after(mut self, n: u64) -> Self {
        self.sync_fail_after = Some(n);
        self
    }

    /// Checks all probabilities are in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// [`WalError::InvalidPlan`] otherwise.
    pub(crate) fn validate(&self) -> Result<(), WalError> {
        for (name, p) in [
            ("torn_write_prob", self.torn_write_prob),
            ("bit_flip_prob", self.bit_flip_prob),
            ("short_read_prob", self.short_read_prob),
            ("reset_lost_prob", self.reset_lost_prob),
            ("sync_fail_prob", self.sync_fail_prob),
        ] {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(WalError::InvalidPlan(format!("{name} = {p} not in [0, 1]")));
            }
        }
        Ok(())
    }
}

/// Count of injected faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FaultStats {
    /// Appends that lost a suffix.
    pub(crate) torn_writes: u64,
    /// Appends that landed with a flipped bit.
    pub(crate) bit_flips: u64,
    /// Reads that lost a suffix.
    pub(crate) short_reads: u64,
    /// Resets whose rename never became durable (old log resurrected).
    pub(crate) lost_resets: u64,
    /// Appends whose fsync failed after a short write (store wedged).
    pub(crate) sync_fails: u64,
}

/// A store wrapper that injects the planned faults.
#[derive(Debug)]
pub struct FaultyStore<S: JournalStore> {
    inner: S,
    plan: StoreFaultPlan,
    rng: StdRng,
    stats: FaultStats,
    appends: u64,
    /// Set by a failed fsync; a wedged store refuses every further write.
    wedged: bool,
}

impl<S: JournalStore> FaultyStore<S> {
    /// Wraps `inner` under `plan`.
    ///
    /// # Errors
    ///
    /// [`WalError::InvalidPlan`] if the plan's probabilities are invalid.
    pub fn new(inner: S, plan: StoreFaultPlan) -> Result<Self, WalError> {
        plan.validate()?;
        Ok(FaultyStore {
            inner,
            plan,
            rng: StdRng::seed_from_u64(plan.seed),
            stats: FaultStats::default(),
            appends: 0,
            wedged: false,
        })
    }

    /// Faults injected so far.
    #[cfg(test)]
    fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Unwraps the inner store.
    #[cfg(test)]
    fn into_inner(self) -> S {
        self.inner
    }

    fn roll(&mut self) -> f64 {
        // Uniform in [0, 1) from the top 53 bits, as jaap_net::fault does.
        (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl<S: JournalStore> JournalStore for FaultyStore<S> {
    fn read(&self) -> Result<Vec<u8>, WalError> {
        // Reads must stay deterministic per call site; short reads are
        // rolled in `read_faulty` below via interior state, so the trait
        // read applies no fault (the mutable path does).
        self.inner.read()
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        if self.wedged {
            return Err(WalError::Io(
                "store wedged after a failed fsync: durability indeterminate, reopen to recover"
                    .into(),
            ));
        }
        let index = self.appends;
        self.appends += 1;
        let scheduled_sync_fail = self.plan.sync_fail_after == Some(index);
        let rolled_sync_fail =
            self.plan.sync_fail_prob > 0.0 && self.roll() < self.plan.sync_fail_prob;
        if scheduled_sync_fail || rolled_sync_fail {
            // Short-write-then-error: a strict prefix reaches the medium,
            // then the fsync reports failure. The durable state is now
            // indeterminate, so the store wedges itself (no fsync retry).
            let keep = (self.rng.next_u64() as usize) % bytes.len().max(1);
            self.inner.append(&bytes[..keep])?;
            self.stats.sync_fails += 1;
            self.wedged = true;
            return Err(WalError::Io(format!(
                "simulated fsync failure on append {index}: {keep}/{} bytes reached the medium",
                bytes.len()
            )));
        }
        let mut bytes = bytes.to_vec();
        if self.plan.bit_flip_prob > 0.0 && self.roll() < self.plan.bit_flip_prob {
            let bit = (self.rng.next_u64() as usize) % (bytes.len().max(1) * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            self.stats.bit_flips += 1;
        }
        if self.plan.torn_write_prob > 0.0 && self.roll() < self.plan.torn_write_prob {
            let keep = (self.rng.next_u64() as usize) % bytes.len().max(1);
            bytes.truncate(keep);
            self.stats.torn_writes += 1;
        }
        self.inner.append(&bytes)
    }

    fn reset(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        if self.wedged {
            return Err(WalError::Io(
                "store wedged after a failed fsync: durability indeterminate, reopen to recover"
                    .into(),
            ));
        }
        if self.plan.reset_lost_prob > 0.0 && self.roll() < self.plan.reset_lost_prob {
            // Crash window after rename, before the directory fsync: the
            // caller believes the rewrite landed, but the medium still
            // holds the pre-reset image.
            self.stats.lost_resets += 1;
            return Ok(());
        }
        self.inner.reset(bytes)
    }

    fn len(&self) -> Result<u64, WalError> {
        self.inner.len()
    }
}

impl<S: JournalStore> FaultyStore<S> {
    /// A read that may be short, per the plan (separate from the trait's
    /// `read` so replay paths opt into read faults explicitly).
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] if the inner store fails.
    pub fn read_faulty(&mut self) -> Result<Vec<u8>, WalError> {
        let mut bytes = self.inner.read()?;
        if self.plan.short_read_prob > 0.0 && self.roll() < self.plan.short_read_prob {
            let keep = (self.rng.next_u64() as usize) % bytes.len().max(1);
            bytes.truncate(keep);
            self.stats.short_reads += 1;
        }
        Ok(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{frame_record, parse_log, Tail};
    use crate::store::MemStore;

    #[test]
    fn plan_validation_rejects_out_of_range() {
        assert!(StoreFaultPlan::seeded(1)
            .with_torn_write(1.5)
            .validate()
            .is_err());
        assert!(StoreFaultPlan::seeded(1)
            .with_bit_flip(-0.1)
            .validate()
            .is_err());
        assert!(StoreFaultPlan::seeded(1)
            .with_short_read(0.3)
            .validate()
            .is_ok());
    }

    #[test]
    fn torn_writes_are_deterministic_and_detected() {
        let run = |seed| {
            let mut store = FaultyStore::new(
                MemStore::new(),
                StoreFaultPlan::seeded(seed).with_torn_write(0.5),
            )
            .expect("plan");
            for i in 0..20u8 {
                store.append(&frame_record(&[i; 16])).expect("append");
            }
            (store.stats(), store.into_inner().snapshot())
        };
        let (stats_a, bytes_a) = run(7);
        let (stats_b, bytes_b) = run(7);
        assert_eq!(stats_a, stats_b, "same seed, same faults");
        assert_eq!(bytes_a, bytes_b);
        assert!(stats_a.torn_writes > 0, "p=0.5 over 20 appends must tear");
        // A torn record is detected; the parser never yields a bad payload.
        let parsed = parse_log(&bytes_a);
        for rec in &parsed.records {
            assert_eq!(rec.len(), 16);
        }
        assert!(parsed.records.len() < 20);
    }

    #[test]
    fn bit_flips_break_checksums_not_parsers() {
        let mut store = FaultyStore::new(
            MemStore::new(),
            StoreFaultPlan::seeded(3).with_bit_flip(1.0),
        )
        .expect("plan");
        store
            .append(&frame_record(b"payload-bytes"))
            .expect("append");
        assert_eq!(store.stats().bit_flips, 1);
        let parsed = parse_log(&store.into_inner().snapshot());
        assert!(parsed.records.is_empty());
        assert!(matches!(parsed.tail, Tail::Truncated { .. }));
    }

    #[test]
    fn lost_reset_resurrects_the_old_log_image() {
        let mut store = FaultyStore::new(
            MemStore::new(),
            StoreFaultPlan::seeded(11).with_reset_lost(1.0),
        )
        .expect("plan");
        for i in 0..4u8 {
            store.append(&frame_record(&[i; 8])).expect("append");
        }
        let pre_reset = store.read().expect("read");
        // The caller sees a successful compaction...
        store.reset(&frame_record(b"snapshot")).expect("reset");
        assert_eq!(store.stats().lost_resets, 1);
        // ...but the medium still holds the pre-rename image: exactly the
        // crash window an un-fsynced parent directory leaves open. The
        // resurrected image is still a *valid* log (the old one), so
        // recovery lands on a consistent earlier state, not garbage.
        let resurrected = store.read().expect("read");
        assert_eq!(resurrected, pre_reset);
        let parsed = parse_log(&resurrected);
        assert_eq!(parsed.records.len(), 4);
        assert_eq!(parsed.tail, Tail::Clean);
    }

    #[test]
    fn scheduled_sync_fail_wedges_the_store_on_a_durable_prefix() {
        let mut store = FaultyStore::new(
            MemStore::new(),
            StoreFaultPlan::seeded(5).with_sync_fail_after(3),
        )
        .expect("plan");
        for i in 0..3u8 {
            store.append(&frame_record(&[i; 16])).expect("append");
        }
        let durable = store.read().expect("read");
        // The scheduled append fails after a short write...
        let err = store.append(&frame_record(&[9; 16]));
        assert!(matches!(err, Err(WalError::Io(_))));
        assert_eq!(store.stats().sync_fails, 1);
        assert!(store.wedged);
        // ...and the store refuses everything after it: no fsync retry.
        assert!(store.append(&frame_record(&[10; 16])).is_err());
        assert!(store.reset(&frame_record(b"snapshot")).is_err());
        // Recovery over the inner medium lands on the durable prefix: the
        // short-written frame is a torn tail the parser truncates.
        let parsed = parse_log(&store.into_inner().snapshot());
        assert_eq!(parsed.records.len(), 3);
        let clean: usize = match parsed.tail {
            Tail::Clean => durable.len(),
            Tail::Truncated { offset, .. } => offset,
        };
        assert_eq!(clean, durable.len());
    }

    #[test]
    fn sync_fail_probability_is_seed_deterministic() {
        let run = |seed| {
            let mut store = FaultyStore::new(
                MemStore::new(),
                StoreFaultPlan::seeded(seed).with_sync_fail(0.2),
            )
            .expect("plan");
            let mut failed_at = None;
            for i in 0..50u8 {
                if store.append(&frame_record(&[i; 8])).is_err() {
                    failed_at = Some(i);
                    break;
                }
            }
            (failed_at, store.stats().sync_fails)
        };
        assert_eq!(run(21), run(21), "same seed, same schedule");
        let (failed_at, fails) = run(21);
        assert!(failed_at.is_some(), "p=0.2 over 50 appends must fail");
        assert_eq!(fails, 1, "the store wedges at the first failure");
    }

    #[test]
    fn short_reads_only_affect_read_faulty() {
        let mut store = FaultyStore::new(
            MemStore::new(),
            StoreFaultPlan::seeded(9).with_short_read(1.0),
        )
        .expect("plan");
        store.append(b"0123456789").expect("append");
        assert_eq!(store.read().expect("clean read").len(), 10);
        assert!(store.read_faulty().expect("short read").len() < 10);
        assert_eq!(store.stats().short_reads, 1);
    }
}
