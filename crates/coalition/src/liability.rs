//! Trust-liability analysis: Case I (conventional key + lockbox) vs
//! Case II (shared key), §2.2 / experiment E7.
//!
//! The paper's argument, made executable:
//!
//! * Case I: "compromise of coalition AA's private key by external
//!   penetrations would result in the AA being a single point of trust
//!   failure"; a single privileged insider also suffices.
//! * Case II: "for external penetrations to succeed, **all** domains would
//!   have to be compromised to obtain the coalition AA's private key".
//!
//! [`min_compromises`] gives the adversary's minimum target count;
//! [`exposure_probability`] the closed-form exposure probability when each
//! party falls independently; [`simulate_exposure`] a Monte-Carlo estimate
//! driven by the same model.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The AA key-management scheme under attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Case I: conventional key in a lockbox at a single AA host, with `n`
    /// domain administrators holding maintenance access.
    CaseILockbox {
        /// Number of member domains (each contributes one privileged
        /// insider).
        n: usize,
    },
    /// Case II: shared key, n-of-n.
    CaseIIShared {
        /// Number of member domains (shareholders).
        n: usize,
    },
    /// Case I with the AA replicated for robustness: "replication of the
    /// coalition AA … would only amplify this trust liability, as the
    /// private key would have to be replicated as well" (§2.2).
    CaseIReplicated {
        /// Number of member domains (insiders).
        n: usize,
        /// Number of AA replicas, each holding the private key.
        replicas: usize,
    },
    /// Case II variant with an m-of-n threshold (§3.3 trade-off).
    CaseIIThreshold {
        /// Signing threshold.
        m: usize,
        /// Number of member domains.
        n: usize,
    },
}

impl Scheme {
    /// Number of attackable parties in the model: Case I has the AA host
    /// plus `n` insiders; Case II has the `n` domains.
    #[must_use]
    pub(crate) fn parties(&self) -> usize {
        match self {
            Scheme::CaseILockbox { n } => n + 1,
            Scheme::CaseIReplicated { n, replicas } => n + replicas,
            Scheme::CaseIIShared { n } | Scheme::CaseIIThreshold { n, .. } => *n,
        }
    }
}

/// Minimum number of compromised parties that exposes the AA's signing
/// capability.
#[must_use]
pub fn min_compromises(scheme: Scheme) -> usize {
    match scheme {
        // One penetration of any host, or one insider — either way, one.
        Scheme::CaseILockbox { .. } | Scheme::CaseIReplicated { .. } => 1,
        Scheme::CaseIIShared { n } => n,
        Scheme::CaseIIThreshold { m, .. } => m,
    }
}

/// Does this specific compromise set expose the key? `compromised` holds
/// party indices: in Case I, index 0 is the AA host and `1..=n` the
/// insiders; in Case II, indices are the domains.
#[must_use]
pub(crate) fn exposes(scheme: Scheme, compromised: &[usize]) -> bool {
    match scheme {
        Scheme::CaseILockbox { n } => compromised.iter().any(|&i| i <= n),
        Scheme::CaseIReplicated { n, replicas } => compromised.iter().any(|&i| i < n + replicas),
        Scheme::CaseIIShared { n } => (0..n).all(|d| compromised.contains(&d)),
        Scheme::CaseIIThreshold { m, n } => compromised.iter().filter(|&&i| i < n).count() >= m,
    }
}

/// Closed-form probability of key exposure when each party is independently
/// compromised with probability `q`.
///
/// # Panics
///
/// Panics unless `0 <= q <= 1`.
#[must_use]
pub fn exposure_probability(scheme: Scheme, q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "q must be a probability");
    match scheme {
        // 1 - P[nobody falls]: host and n insiders are all targets.
        Scheme::CaseILockbox { n } => 1.0 - (1.0 - q).powi((n + 1) as i32),
        // Every replica is an additional full-key target.
        Scheme::CaseIReplicated { n, replicas } => 1.0 - (1.0 - q).powi((n + replicas) as i32),
        Scheme::CaseIIShared { n } => q.powi(n as i32),
        Scheme::CaseIIThreshold { m, n } => (m..=n)
            .map(|k| {
                let mut c = 1.0f64;
                let kk = k.min(n - k);
                for i in 0..kk {
                    c = c * (n - i) as f64 / (i + 1) as f64;
                }
                c * q.powi(k as i32) * (1.0 - q).powi((n - k) as i32)
            })
            .sum(),
    }
}

/// Monte-Carlo estimate of the exposure probability.
///
/// # Panics
///
/// Panics on invalid `q` or `trials == 0`.
#[must_use]
pub fn simulate_exposure(scheme: Scheme, q: f64, trials: u64, seed: u64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "q must be a probability");
    assert!(trials > 0, "need at least one trial");
    let mut rng = StdRng::seed_from_u64(seed);
    let parties = scheme.parties();
    let mut exposed = 0u64;
    for _ in 0..trials {
        let compromised: Vec<usize> = (0..parties)
            .filter(|_| {
                let roll = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                roll < q
            })
            .collect();
        if exposes(scheme, &compromised) {
            exposed += 1;
        }
    }
    exposed as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimum_compromises_match_paper() {
        assert_eq!(min_compromises(Scheme::CaseILockbox { n: 3 }), 1);
        assert_eq!(min_compromises(Scheme::CaseIIShared { n: 3 }), 3);
        assert_eq!(min_compromises(Scheme::CaseIIThreshold { m: 2, n: 3 }), 2);
    }

    #[test]
    fn exposure_sets() {
        let case1 = Scheme::CaseILockbox { n: 3 };
        assert!(exposes(case1, &[0])); // host penetrated
        assert!(exposes(case1, &[2])); // one insider
        assert!(!exposes(case1, &[])); // nobody

        let case2 = Scheme::CaseIIShared { n: 3 };
        assert!(!exposes(case2, &[0, 1]));
        assert!(exposes(case2, &[0, 1, 2]));

        let thresh = Scheme::CaseIIThreshold { m: 2, n: 3 };
        assert!(!exposes(thresh, &[1]));
        assert!(exposes(thresh, &[0, 2]));
    }

    #[test]
    fn closed_forms() {
        // Case I with n=3, q=0.1: 1 - 0.9^4 = 0.3439
        let p1 = exposure_probability(Scheme::CaseILockbox { n: 3 }, 0.1);
        assert!((p1 - 0.3439).abs() < 1e-10);
        // Case II: 0.1^3 = 0.001
        let p2 = exposure_probability(Scheme::CaseIIShared { n: 3 }, 0.1);
        assert!((p2 - 0.001).abs() < 1e-12);
        // The paper's headline: shared keys cut the exposure probability by
        // orders of magnitude.
        assert!(p1 / p2 > 300.0);
    }

    #[test]
    fn threshold_sits_between() {
        let q = 0.2;
        let case1 = exposure_probability(Scheme::CaseILockbox { n: 5 }, q);
        let t3 = exposure_probability(Scheme::CaseIIThreshold { m: 3, n: 5 }, q);
        let full = exposure_probability(Scheme::CaseIIShared { n: 5 }, q);
        assert!(case1 > t3, "lockbox is worst");
        assert!(t3 > full, "n-of-n is best");
    }

    #[test]
    fn simulation_close_to_closed_form() {
        for scheme in [
            Scheme::CaseILockbox { n: 3 },
            Scheme::CaseIIShared { n: 3 },
            Scheme::CaseIIThreshold { m: 2, n: 3 },
        ] {
            let q = 0.3;
            let a = exposure_probability(scheme, q);
            let s = simulate_exposure(scheme, q, 60_000, 9);
            assert!((a - s).abs() < 0.01, "{scheme:?}: {a} vs {s}");
        }
    }

    #[test]
    fn replication_amplifies_case1_liability() {
        // The paper's §2.2 parenthetical, quantified: more replicas, more
        // exposure — monotone in the replica count.
        let q = 0.05;
        let base = exposure_probability(Scheme::CaseILockbox { n: 3 }, q);
        let mut prev = base;
        for replicas in 2..=5 {
            let p = exposure_probability(Scheme::CaseIReplicated { n: 3, replicas }, q);
            assert!(
                p > prev,
                "{replicas} replicas must be worse than {}",
                replicas - 1
            );
            prev = p;
        }
        // And always at least one compromise away.
        assert_eq!(
            min_compromises(Scheme::CaseIReplicated { n: 3, replicas: 4 }),
            1
        );
        // Monte Carlo agrees.
        let scheme = Scheme::CaseIReplicated { n: 3, replicas: 3 };
        let a = exposure_probability(scheme, q);
        let s = simulate_exposure(scheme, q, 60_000, 11);
        assert!((a - s).abs() < 0.01);
    }

    #[test]
    fn boundary_probabilities() {
        assert_eq!(
            exposure_probability(Scheme::CaseIIShared { n: 3 }, 0.0),
            0.0
        );
        assert_eq!(
            exposure_probability(Scheme::CaseIIShared { n: 3 }, 1.0),
            1.0
        );
        assert_eq!(
            exposure_probability(Scheme::CaseILockbox { n: 3 }, 0.0),
            0.0
        );
    }
}
