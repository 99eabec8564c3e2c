//! Host pace: a fixed reference kernel, timed between the steps of every
//! timed phase, that turns wall-clock samples into time at a reference
//! host speed.
//!
//! The shared host this benchmark runs on changes speed by up to 2× over
//! minutes, on both vCPUs at once, and a run can sit entirely in a slow
//! or a fast stretch (see `NOTES.md`, "Host noise"). The kernel below is
//! bench-side code that no change to the program under test can touch,
//! so its time tracks the host alone. A sample taken at a moment when the
//! kernel runs `k` times slower than [`REF_US`] is divided by `k`.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Time of one kernel run at the reference pace, µs. It sits near the
/// kernel's time on the slower of the host's usual speed levels, so a
/// paced sample reads close to its wall-clock value there.
pub const REF_US: f64 = 100.0;

/// Minimum gap between two kernel runs (about 2 % of the phase).
const EVERY: Duration = Duration::from_millis(5);

/// Kernel runs whose median sets the current pace: about the last 45 ms,
/// so one interrupted run does not move it.
const RECENT: usize = 9;

/// The reference kernel: 64 schoolbook products of two 2048-bit numbers
/// (32 × 32 limbs of 64 bits), the arithmetic an RSA operation spends its
/// time in, on operands that stay in L1. Returns its wall time in µs.
fn kernel() -> f64 {
    let mut a = [0u64; 32];
    let mut b = [0u64; 32];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for (ai, bi) in a.iter_mut().zip(b.iter_mut()) {
        *ai = next();
        *bi = next();
    }
    let t = Instant::now();
    let mut acc = 0u64;
    for _ in 0..64 {
        let mut out = [0u64; 64];
        for (i, &ai) in a.iter().enumerate() {
            let mut carry: u128 = 0;
            for (j, &bj) in b.iter().enumerate() {
                let v = u128::from(ai) * u128::from(bj) + u128::from(out[i + j]) + carry;
                out[i + j] = v as u64;
                carry = v >> 64;
            }
            out[i + 32] = carry as u64;
        }
        acc ^= out[17];
        a[0] ^= std::hint::black_box(acc);
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64() * 1e6
}

/// The current pace of the host, from the most recent kernel runs.
#[derive(Debug)]
pub struct Pace {
    last: Option<Instant>,
    recent: VecDeque<f64>,
    factor: f64,
    /// Every kernel time taken, µs.
    pub samples: Vec<f64>,
}

impl Default for Pace {
    fn default() -> Self {
        Self::new()
    }
}

impl Pace {
    /// A pace with no kernel run yet (factor 1).
    #[must_use]
    pub fn new() -> Self {
        Pace {
            last: None,
            recent: VecDeque::with_capacity(RECENT),
            factor: 1.0,
            samples: Vec::new(),
        }
    }

    /// True when no kernel has run yet or 5 ms have passed since the
    /// last one.
    #[must_use]
    pub fn due(&self) -> bool {
        self.last.is_none_or(|t| t.elapsed() >= EVERY)
    }

    /// Runs the kernel once and updates the pace.
    pub fn run(&mut self) {
        let us = kernel();
        self.last = Some(Instant::now());
        self.samples.push(us);
        if self.recent.len() == RECENT {
            self.recent.pop_front();
        }
        self.recent.push_back(us);
        self.factor = REF_US / crate::stats::Summary::of(self.recent.make_contiguous()).median;
    }

    /// `raw`, a time measured just now, at the reference pace.
    #[must_use]
    pub fn scale(&self, raw: f64) -> f64 {
        raw * self.factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_follows_the_median_of_recent_kernel_runs() {
        let mut p = Pace::new();
        assert!(p.due());
        assert_eq!(p.scale(10.0), 10.0);
        for _ in 0..RECENT + 2 {
            p.run();
        }
        assert_eq!(p.samples.len(), RECENT + 2);
        assert_eq!(p.recent.len(), RECENT);
        let median = crate::stats::Summary::of(p.recent.make_contiguous()).median;
        assert!(median > 0.0);
        assert!((p.scale(median) - REF_US).abs() < 1e-9);
    }
}
