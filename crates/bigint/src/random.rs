//! Random [`Nat`] generation from any [`rand::RngCore`].
//!
//! Only the `RngCore` trait surface is used so the crate is insulated from
//! `rand` API churn between minor versions.

use rand::RngCore;

use crate::Nat;

/// A uniformly random `Nat` with at most `bits` bits (i.e. in `0..2^bits`).
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// let mut rng = StdRng::seed_from_u64(7);
/// let n = jaap_bigint::random_nat(&mut rng, 100);
/// assert!(n.bit_len() <= 100);
/// ```
#[must_use]
pub fn random_nat(rng: &mut dyn RngCore, bits: usize) -> Nat {
    if bits == 0 {
        return Nat::zero();
    }
    let limbs = bits.div_ceil(64);
    let mut out = Vec::with_capacity(limbs);
    for _ in 0..limbs {
        out.push(rng.next_u64());
    }
    let top_bits = bits % 64;
    if top_bits != 0 {
        let last = out.last_mut().expect("at least one limb");
        *last &= u64::MAX >> (64 - top_bits);
    }
    Nat::from_limbs(out)
}

/// A uniformly random `Nat` with *exactly* `bits` bits (top bit forced).
///
/// # Panics
///
/// Panics if `bits == 0`.
#[must_use]
pub(crate) fn random_nat_exact(rng: &mut dyn RngCore, bits: usize) -> Nat {
    assert!(bits > 0, "cannot force the top bit of a 0-bit number");
    let mut n = random_nat(rng, bits);
    n.set_bit(bits - 1, true);
    n
}

/// A uniformly random `Nat` in `0..bound` by rejection sampling.
///
/// # Panics
///
/// Panics if `bound` is zero.
#[must_use]
pub fn random_below(rng: &mut dyn RngCore, bound: &Nat) -> Nat {
    assert!(!bound.is_zero(), "random_below bound must be positive");
    let bits = bound.bit_len();
    loop {
        let candidate = random_nat(rng, bits);
        if &candidate < bound {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_nat_respects_bit_bound() {
        let mut rng = StdRng::seed_from_u64(1);
        for bits in [0usize, 1, 63, 64, 65, 130] {
            for _ in 0..20 {
                assert!(random_nat(&mut rng, bits).bit_len() <= bits);
            }
        }
    }

    #[test]
    fn random_nat_exact_forces_top_bit() {
        let mut rng = StdRng::seed_from_u64(2);
        for bits in [1usize, 64, 65, 257] {
            for _ in 0..20 {
                assert_eq!(random_nat_exact(&mut rng, bits).bit_len(), bits);
            }
        }
    }

    #[test]
    fn random_below_is_reduced() {
        let mut rng = StdRng::seed_from_u64(3);
        let bound = Nat::from(1000u64);
        for _ in 0..200 {
            assert!(random_below(&mut rng, &bound) < bound);
        }
    }

    #[test]
    fn random_below_hits_small_range() {
        // With bound 2 both values should appear quickly.
        let mut rng = StdRng::seed_from_u64(4);
        let bound = Nat::two();
        let mut seen = [false, false];
        for _ in 0..64 {
            let v = random_below(&mut rng, &bound).to_u64().expect("small");
            seen[v as usize] = true;
        }
        assert!(seen[0] && seen[1]);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = random_nat(&mut StdRng::seed_from_u64(42), 256);
        let b = random_nat(&mut StdRng::seed_from_u64(42), 256);
        assert_eq!(a, b);
    }
}
