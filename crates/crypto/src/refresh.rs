//! Proactive refresh of additive private-key shares (Wu et al. \[27\]).
//!
//! > "Wu et al. describe a refresh operation that allows re-distribution of
//! > private key shares of an existing shared public key among the coalition
//! > domains." (§6)
//!
//! Each party `i` draws deltas `δ_{i,0..n}` with `Σⱼ δ_{i,j} = 0` and sends
//! `δ_{i,j}` to party `j`; party `j`'s new share is
//! `d'ⱼ = dⱼ + Σᵢ δ_{i,j}`. The sum `Σ dⱼ` — and therefore the key — is
//! unchanged, but any previously exfiltrated share becomes useless.

use jaap_bigint::{random_nat, Int};
use jaap_net::{FaultPlan, Network, NetworkStats, PartyId};
use jaap_obs::MetricsRegistry;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::shared::KeyShare;
use crate::CryptoError;

/// Bit size of refresh deltas: comfortably larger than any exponent share.
const DELTA_BITS_MARGIN: usize = 64;

/// Refreshes shares in place, in-process (the dealer-style fast path).
///
/// # Errors
///
/// [`CryptoError::InvalidParameters`] if `shares` is empty or indices are
/// not dense `0..n`.
pub fn refresh_in_place(rng: &mut dyn RngCore, shares: &mut [KeyShare]) -> Result<(), CryptoError> {
    let n = shares.len();
    validate(shares)?;
    let delta_bits = shares[0].public().modulus().bit_len() + DELTA_BITS_MARGIN;
    let mut totals: Vec<Int> = (0..n).map(|_| Int::zero()).collect();
    for _dealer in 0..n {
        let mut sum = Int::zero();
        for total in totals.iter_mut().take(n - 1) {
            let delta = Int::from_nat(random_nat(rng, delta_bits));
            sum = &sum + &delta;
            *total = &*total + &delta;
        }
        totals[n - 1] = &totals[n - 1] - &sum;
    }
    for (share, delta) in shares.iter_mut().zip(totals) {
        let updated = share.exponent_share() + &delta;
        share.set_exponent_share(updated);
    }
    Ok(())
}

/// Runs the refresh as a real message exchange on a simulated network and
/// returns the refreshed shares (party order preserved) plus network stats.
///
/// # Errors
///
/// [`CryptoError::InvalidParameters`] on an invalid share set;
/// [`CryptoError::Protocol`] on network failure.
pub fn refresh_over_network(
    shares: &[KeyShare],
    seed: u64,
) -> Result<(Vec<KeyShare>, NetworkStats), CryptoError> {
    refresh_over_network_observed(shares, seed, FaultPlan::reliable(), None)
}

/// Like [`refresh_over_network`], but runs on a mesh with the given fault
/// plan and, when a metrics registry is supplied, records per-link delivery
/// outcomes (`net.link.*` counters) plus a `refresh.refreshes` run counter —
/// the same observability a [`crate::session::SigningSession`] round gets.
///
/// # Errors
///
/// [`CryptoError::InvalidParameters`] on an invalid share set or fault
/// plan; [`CryptoError::Protocol`] on network failure.
pub fn refresh_over_network_observed(
    shares: &[KeyShare],
    seed: u64,
    faults: FaultPlan,
    metrics: Option<&MetricsRegistry>,
) -> Result<(Vec<KeyShare>, NetworkStats), CryptoError> {
    validate(shares)?;
    let n = shares.len();
    let delta_bits = shares[0].public().modulus().bit_len() + DELTA_BITS_MARGIN;
    let mesh = match metrics {
        Some(registry) => {
            registry.counter("refresh.refreshes").inc();
            Network::<Int>::try_mesh_observed(n, faults, false, registry)
        }
        None => Network::<Int>::try_mesh_with(n, faults, false),
    };
    let (endpoints, handle) =
        mesh.map_err(|e| CryptoError::InvalidParameters(format!("network: {e}")))?;
    let results = jaap_net::run_parties(endpoints, |mut ep| {
        let me = ep.id().0;
        let mut rng = StdRng::seed_from_u64(seed ^ (me as u64 + 1).wrapping_mul(0x9E37_79B9));
        // Draw deltas for every party; keep my own so the row sums to zero.
        let mut sum = Int::zero();
        let mut my_delta = Int::zero();
        for j in 0..n {
            if j == me {
                continue;
            }
            let delta = Int::from_nat(random_nat(&mut rng, delta_bits));
            sum = &sum + &delta;
            ep.send(PartyId(j), delta)
                .map_err(|e| CryptoError::Protocol(format!("network: {e}")))?;
        }
        my_delta = &my_delta - &sum; // δ_{me,me} = -Σ_{j≠me} δ_{me,j}
        let mut total = my_delta;
        for j in 0..n {
            if j == me {
                continue;
            }
            let delta = ep
                .recv_from(PartyId(j))
                .map_err(|e| CryptoError::Protocol(format!("network: {e}")))?;
            total = &total + &delta;
        }
        let mut updated = shares[me].clone();
        updated.set_exponent_share(shares[me].exponent_share() + &total);
        Ok::<KeyShare, CryptoError>(updated)
    });
    let refreshed = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok((refreshed, handle.stats()))
}

fn validate(shares: &[KeyShare]) -> Result<(), CryptoError> {
    if shares.is_empty() {
        return Err(CryptoError::InvalidParameters(
            "no shares to refresh".into(),
        ));
    }
    for (i, s) in shares.iter().enumerate() {
        if s.index() != i {
            return Err(CryptoError::InvalidParameters(
                "shares must be in dense party order".into(),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::joint;
    use crate::shared::SharedRsaKey;

    fn dealt(n: usize, seed: u64) -> (crate::shared::SharedPublicKey, Vec<KeyShare>) {
        let mut rng = StdRng::seed_from_u64(seed);
        SharedRsaKey::deal(&mut rng, 192, n).expect("deal")
    }

    #[test]
    fn in_place_refresh_preserves_signing_power() {
        let (public, mut shares) = dealt(3, 1);
        let before: Vec<Int> = shares.iter().map(|s| s.exponent_share().clone()).collect();
        refresh_in_place(&mut StdRng::seed_from_u64(2), &mut shares).expect("refresh");
        let after: Vec<Int> = shares.iter().map(|s| s.exponent_share().clone()).collect();
        assert_ne!(before, after, "shares must actually change");
        let sig = joint::sign_locally(&public, &shares, b"after refresh").expect("sign");
        assert!(public.verify(b"after refresh", &sig));
    }

    #[test]
    fn refresh_preserves_share_sum() {
        let (_public, mut shares) = dealt(4, 3);
        let sum_before = shares
            .iter()
            .fold(Int::zero(), |acc, s| &acc + s.exponent_share());
        refresh_in_place(&mut StdRng::seed_from_u64(4), &mut shares).expect("refresh");
        let sum_after = shares
            .iter()
            .fold(Int::zero(), |acc, s| &acc + s.exponent_share());
        assert_eq!(sum_before, sum_after);
    }

    #[test]
    fn mixed_old_and_new_shares_fail() {
        let (public, shares) = dealt(3, 5);
        let mut refreshed = shares.clone();
        refresh_in_place(&mut StdRng::seed_from_u64(6), &mut refreshed).expect("refresh");
        let mixed = vec![
            shares[0].clone(),
            refreshed[1].clone(),
            refreshed[2].clone(),
        ];
        assert!(joint::sign_locally(&public, &mixed, b"m").is_err());
    }

    #[test]
    fn networked_refresh_matches_semantics() {
        let (public, shares) = dealt(3, 7);
        let (refreshed, stats) = refresh_over_network(&shares, 8).expect("refresh");
        assert_eq!(stats.messages_sent, 6); // n(n-1)
        let sig = joint::sign_locally(&public, &refreshed, b"networked").expect("sign");
        assert!(public.verify(b"networked", &sig));
        for (old, new) in shares.iter().zip(&refreshed) {
            assert_eq!(old.index(), new.index());
            assert_ne!(old.exponent_share(), new.exponent_share());
        }
    }

    #[test]
    fn repeated_refresh_stays_valid() {
        let (public, mut shares) = dealt(3, 9);
        let mut rng = StdRng::seed_from_u64(10);
        for round in 0..5 {
            refresh_in_place(&mut rng, &mut shares).expect("refresh");
            let msg = format!("round {round}");
            let sig = joint::sign_locally(&public, &shares, msg.as_bytes()).expect("sign");
            assert!(public.verify(msg.as_bytes(), &sig));
        }
    }

    #[test]
    fn observed_refresh_records_delivery_outcomes() {
        let (public, shares) = dealt(3, 11);
        let registry = MetricsRegistry::new();
        let (refreshed, stats) =
            refresh_over_network_observed(&shares, 12, FaultPlan::reliable(), Some(&registry))
                .expect("refresh");
        assert_eq!(registry.counter_value("refresh.refreshes"), Some(1));
        let delivered: u64 = (0..3)
            .flat_map(|a| (0..3).filter(move |&b| b != a).map(move |b| (a, b)))
            .map(|(a, b)| {
                registry
                    .counter_value(&format!("net.link.{a}->{b}.delivered"))
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(delivered, stats.messages_delivered);
        let sig = joint::sign_locally(&public, &refreshed, b"observed").expect("sign");
        assert!(public.verify(b"observed", &sig));
    }

    #[test]
    fn observed_refresh_rejects_invalid_fault_plan() {
        let (_public, shares) = dealt(2, 13);
        let mut plan = FaultPlan::reliable();
        plan.drop_prob = 2.0;
        assert!(refresh_over_network_observed(&shares, 14, plan, None).is_err());
    }

    #[test]
    fn empty_share_set_rejected() {
        let mut none: Vec<KeyShare> = Vec::new();
        assert!(refresh_in_place(&mut StdRng::seed_from_u64(0), &mut none).is_err());
    }
}
