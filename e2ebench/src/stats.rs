//! Order statistics over raw bench-side samples (no histogram buckets).

/// Sorts a copy of `samples` and returns it.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (0 ≤ q ≤ 1) of already sorted samples, by linear
/// interpolation between closest ranks. Returns 0 for no samples.
#[must_use]
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

/// Median and quartile summary of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Mean.
    pub mean: f64,
}

impl Summary {
    /// Summarises `samples` (all zeros for an empty set).
    #[must_use]
    pub fn of(samples: &[f64]) -> Self {
        let s = sorted(samples);
        let mean = if s.is_empty() {
            0.0
        } else {
            s.iter().sum::<f64>() / s.len() as f64
        };
        Summary {
            n: s.len(),
            q1: quantile_sorted(&s, 0.25),
            median: quantile_sorted(&s, 0.5),
            q3: quantile_sorted(&s, 0.75),
            p90: quantile_sorted(&s, 0.9),
            p99: quantile_sorted(&s, 0.99),
            mean,
        }
    }

    /// Interquartile range as a share of the median (0 when the median
    /// is 0).
    #[must_use]
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = sorted(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(quantile_sorted(&s, 0.5), 3.0);
        assert_eq!(quantile_sorted(&s, 0.25), 2.0);
        assert_eq!(quantile_sorted(&s, 1.0), 5.0);
        let sum = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(sum.median, 2.5);
        assert_eq!(sum.n, 4);
        assert!((sum.spread() - 1.5 / 2.5).abs() < 1e-12);
        assert_eq!(Summary::of(&[]).median, 0.0);
    }
}
