//! The individual instruments: counters, gauges, log-scale histograms and
//! span timers. Everything here is lock-free after construction.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotone event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed point-in-time value.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Creates a gauge at zero.
    #[must_use]
    pub(crate) fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub(crate) fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one per `u64` bit length, so the buckets
/// cover `[0, u64::MAX]` on a log₂ scale with no configuration.
pub(crate) const BUCKETS: usize = 65;

/// A latency/size distribution over fixed log₂-scale buckets.
///
/// Bucket `0` holds the value `0`; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i)` — i.e. values whose bit length is `i`. Recording is
/// three relaxed atomic operations plus two compare-exchange loops for
/// min/max; there is no allocation and no lock, so histograms are safe to
/// share across the batch-verification threads.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// The bucket a value lands in: its bit length.
fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`0` for bucket 0, else `2^i − 1`).
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration as nanoseconds (saturating at `u64::MAX`).
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// A consistent-enough snapshot of the distribution. (Individual loads
    /// are relaxed; a snapshot taken while writers are active can be off by
    /// the in-flight events, which is the usual histogram contract.)
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let sum = self.sum.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        let buckets: Vec<(u64, u64)> = (0..BUCKETS)
            .filter_map(|i| {
                let c = self.buckets[i].load(Ordering::Relaxed);
                (c > 0).then_some((bucket_upper(i), c))
            })
            .collect();
        HistogramSnapshot {
            count,
            sum,
            min: if count == 0 { 0 } else { min },
            max: self.max.load(Ordering::Relaxed),
            p50: quantile(&buckets, count, 0.50),
            p90: quantile(&buckets, count, 0.90),
            p99: quantile(&buckets, count, 0.99),
            p999: quantile(&buckets, count, 0.999),
            buckets,
        }
    }
}

/// Upper-bound estimate of quantile `q` from `(upper, count)` buckets.
fn quantile(buckets: &[(u64, u64)], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    // ceil(q * count), clamped into [1, count].
    let rank = {
        let r = (q * count as f64).ceil() as u64;
        r.clamp(1, count)
    };
    let mut seen = 0u64;
    for &(upper, c) in buckets {
        seen += c;
        if seen >= rank {
            return upper;
        }
    }
    buckets.last().map_or(0, |&(upper, _)| upper)
}

/// A point-in-time view of a [`Histogram`], with log-bucket quantile
/// estimates (each quantile is reported as its bucket's upper bound, so
/// estimates are conservative: never below the true quantile's bucket).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub(crate) min: u64,
    /// Largest observation.
    pub max: u64,
    /// Median estimate (bucket upper bound).
    pub p50: u64,
    /// 90th-percentile estimate.
    pub(crate) p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// 99.9th-percentile estimate — the open-loop load experiments' tail
    /// metric. Same conservative rule: the bucket upper bound at rank
    /// `clamp(ceil(0.999·count), 1, count)`.
    pub p999: u64,
    /// Non-empty buckets as `(inclusive upper bound, count)` pairs.
    pub(crate) buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation (0 when empty).
    #[must_use]
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(-7);
        assert_eq!(g.get(), -7);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1106);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        assert!((s.mean() - 1106.0 / 6.0).abs() < 1e-9);
        // 0 → bucket 0; 1 → b1; 2,3 → b2; 100 → b7; 1000 → b10.
        assert_eq!(s.buckets.len(), 5);
        assert_eq!(s.buckets[0], (0, 1));
        assert_eq!(s.buckets[2], (3, 2));
        // p50: rank 3 of 6 lands in bucket upper 3.
        assert_eq!(s.p50, 3);
        // p99: rank 6 lands in the 1000 bucket (upper 1023).
        assert_eq!(s.p99, 1023);
        // p999: rank 6 too — at small counts the tail quantiles coincide.
        assert_eq!(s.p999, 1023);
    }

    #[test]
    fn p999_separates_from_p99_at_scale() {
        let h = Histogram::new();
        // 9989 fast events, 10 slow, 1 very slow: p99 stays in the fast
        // bucket, p999 lands in the slow one, max sees the straggler.
        for _ in 0..9989 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(100_000);
        }
        h.record(10_000_000);
        let s = h.snapshot();
        assert_eq!(s.p99, 127);
        assert_eq!(s.p999, 131_071);
        assert_eq!(s.max, 10_000_000);
        // Conservative rule: never below the true quantile's bucket.
        assert!(s.p999 >= 100_000);
    }

    #[test]
    fn empty_histogram_snapshot_is_zeroed() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
        assert_eq!(s.p50, 0);
        assert_eq!(s.p999, 0);
        assert!(s.buckets.is_empty());
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn histogram_is_shareable_across_threads() {
        let h = std::sync::Arc::new(Histogram::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let h = std::sync::Arc::clone(&h);
                scope.spawn(move || {
                    for v in 0..100u64 {
                        h.record(v);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count, 400);
    }
}
