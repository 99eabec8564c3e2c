//! Collusion analysis: what a coalition of compromised domains can do with
//! the shares they pool (paper §2.2 Case II, §3.1, §6).
//!
//! The executable claims:
//!
//! * **Additive n-of-n shares**: any *proper* subset of shares yields no
//!   signing power ([`collude_additive`] returns
//!   [`CollusionOutcome::Nothing`]); all `n` shares reconstruct the signing
//!   exponent. "For insider attacks to succeed, a domain would have to
//!   compromise all other member domains."
//! * **m-of-n threshold shares**: `m` or more shares reconstruct; fewer do
//!   not ([`collude_threshold`]).

use jaap_bigint::{Int, Nat};

use crate::fdh;
use crate::shamir::integer;
use crate::shared::{KeyShare, SharedPublicKey};
use crate::threshold::{ThresholdPublic, ThresholdShare};

/// What a set of colluding parties recovered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CollusionOutcome {
    /// Full signing power: an exponent `D` with `(H^D)^e ≡ H (mod N)` —
    /// functionally equivalent to the private key.
    FullKey(Int),
    /// Nothing useful: the pooled shares do not determine the key.
    Nothing,
}

impl CollusionOutcome {
    /// `true` if the collusion succeeded.
    #[must_use]
    pub fn is_compromised(&self) -> bool {
        matches!(self, CollusionOutcome::FullKey(_))
    }
}

/// Attempts key recovery from a set of additive [`KeyShare`]s.
///
/// Succeeds iff *all* `n` shares are present: the signing exponent is
/// `Σ dᵢ + r`. The attempt is validated by test-signing; a proper subset is
/// reported as [`CollusionOutcome::Nothing`] (any value of the missing share
/// is consistent with the observed ones, so the subset carries no
/// information about `d`).
#[must_use]
pub fn collude_additive(public: &SharedPublicKey, pooled: &[&KeyShare]) -> CollusionOutcome {
    let n = public.n_parties();
    let mut seen = vec![false; n];
    for s in pooled {
        if s.index() < n {
            seen[s.index()] = true;
        }
    }
    if seen.iter().filter(|&&b| b).count() < n {
        return CollusionOutcome::Nothing;
    }
    let mut d = pooled
        .iter()
        .fold(Int::zero(), |acc, s| &acc + s.exponent_share());
    d = &d + &Int::from(public.correction());
    if exponent_signs(&d, public.modulus(), public.exponent()) {
        CollusionOutcome::FullKey(d)
    } else {
        CollusionOutcome::Nothing
    }
}

/// Attempts key recovery from pooled threshold shares.
///
/// Succeeds iff at least `m` distinct shares are pooled: Lagrange
/// interpolation over the integers recovers `Δ²·(d − r)`; combined with the
/// public `Δ²`, `r` and `e`, that is full signing power (we return the
/// equivalent exponent `Δ²·d` together with validation, matching what
/// [`crate::threshold::combine`] exploits).
#[must_use]
pub fn collude_threshold(public: &ThresholdPublic, pooled: &[&ThresholdShare]) -> CollusionOutcome {
    let mut unique: Vec<&ThresholdShare> = Vec::new();
    for s in pooled {
        if !unique.iter().any(|u| u.index == s.index) {
            unique.push(s);
        }
    }
    if unique.len() < public.threshold() {
        return CollusionOutcome::Nothing;
    }
    let subset: Vec<integer::IntShare> = unique
        .iter()
        .take(public.threshold())
        .map(|s| integer::IntShare {
            index: s.index,
            value: s.value().clone(),
        })
        .collect();
    let delta2_d = integer::reconstruct_delta2_secret(&subset, public.parties());
    // Validate: H^{Δ²·d_rec} must equal (valid sig)^{Δ²}; cheaper: check that
    // using delta2_d as an exponent produces H^{Δ²} under e.
    let modulus = public.rsa().modulus();
    let h = fdh::encode(b"jaap-collusion-probe", modulus);
    let delta = integer::delta(public.parties());
    let delta2 = &delta * &delta;
    let probe = apply(&delta2_d, &h, modulus);
    let expect = h.modpow(&delta2, modulus);
    if probe.modpow(public.rsa().exponent(), modulus) == expect {
        CollusionOutcome::FullKey(delta2_d)
    } else {
        CollusionOutcome::Nothing
    }
}

fn exponent_signs(d: &Int, modulus: &Nat, e: &Nat) -> bool {
    let h = fdh::encode(b"jaap-collusion-probe", modulus);
    let sig = apply(d, &h, modulus);
    sig.modpow(e, modulus) == h
}

fn apply(exp: &Int, base: &Nat, modulus: &Nat) -> Nat {
    if exp.is_negative() {
        let inv = base.modinv(modulus).expect("probe residue invertible");
        inv.modpow(exp.magnitude(), modulus)
    } else {
        base.modpow(exp.magnitude(), modulus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsa::RsaKeyPair;
    use crate::shared::SharedRsaKey;
    use crate::threshold::ThresholdKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn additive_requires_all_parties() {
        let mut rng = StdRng::seed_from_u64(1);
        let (public, shares) = SharedRsaKey::deal(&mut rng, 192, 3).expect("deal");
        let all: Vec<&KeyShare> = shares.iter().collect();
        assert!(collude_additive(&public, &all).is_compromised());
        for leave_out in 0..3 {
            let subset: Vec<&KeyShare> = shares
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != leave_out)
                .map(|(_, s)| s)
                .collect();
            assert_eq!(
                collude_additive(&public, &subset),
                CollusionOutcome::Nothing
            );
        }
    }

    #[test]
    fn additive_duplicates_do_not_help() {
        let mut rng = StdRng::seed_from_u64(2);
        let (public, shares) = SharedRsaKey::deal(&mut rng, 192, 3).expect("deal");
        let dup = vec![&shares[0], &shares[0], &shares[1]];
        assert_eq!(collude_additive(&public, &dup), CollusionOutcome::Nothing);
    }

    #[test]
    fn threshold_requires_m_parties() {
        let mut rng = StdRng::seed_from_u64(3);
        let kp = RsaKeyPair::generate(&mut rng, 192).expect("keygen");
        let (public, shares) = ThresholdKey::deal(&mut rng, &kp, 3, 5).expect("deal");
        let two: Vec<&ThresholdShare> = shares[..2].iter().collect();
        assert_eq!(collude_threshold(&public, &two), CollusionOutcome::Nothing);
        let three: Vec<&ThresholdShare> = shares[1..4].iter().collect();
        assert!(collude_threshold(&public, &three).is_compromised());
        let all: Vec<&ThresholdShare> = shares.iter().collect();
        assert!(collude_threshold(&public, &all).is_compromised());
    }

    #[test]
    fn threshold_duplicate_shares_do_not_count() {
        let mut rng = StdRng::seed_from_u64(4);
        let kp = RsaKeyPair::generate(&mut rng, 192).expect("keygen");
        let (public, shares) = ThresholdKey::deal(&mut rng, &kp, 3, 5).expect("deal");
        let dup = vec![&shares[0], &shares[0], &shares[1]];
        assert_eq!(collude_threshold(&public, &dup), CollusionOutcome::Nothing);
    }

    #[test]
    fn recovered_additive_exponent_actually_signs() {
        let mut rng = StdRng::seed_from_u64(5);
        let (public, shares) = SharedRsaKey::deal(&mut rng, 192, 3).expect("deal");
        let all: Vec<&KeyShare> = shares.iter().collect();
        let CollusionOutcome::FullKey(d) = collude_additive(&public, &all) else {
            panic!("expected full key");
        };
        let h = fdh::encode(b"attacker message", public.modulus());
        let sig = apply(&d, &h, public.modulus());
        assert_eq!(sig.modpow(public.exponent(), public.modulus()), h);
    }

    #[test]
    fn bf_generated_shares_same_properties() {
        let (public, shares, _) = SharedRsaKey::generate(64, 3, 77).expect("keygen");
        let all: Vec<&KeyShare> = shares.iter().collect();
        assert!(collude_additive(&public, &all).is_compromised());
        let two: Vec<&KeyShare> = shares[..2].iter().collect();
        assert_eq!(collude_additive(&public, &two), CollusionOutcome::Nothing);
    }
}
