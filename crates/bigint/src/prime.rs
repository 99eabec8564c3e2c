//! Primality testing (Miller–Rabin), Jacobi symbols, and prime generation.

use rand::RngCore;

use crate::{random_below, random_nat_exact, Nat};

/// Number of Miller–Rabin rounds. Error probability ≤ 4^-40.
const MR_ROUNDS: usize = 40;

/// Primes below 1000, used for trial division and distributed sieving
/// (Boneh–Franklin shared key generation sieves candidate primes against
/// this table).
pub const SMALL_PRIMES: &[u64] = &[
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307,
    311, 313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383, 389, 397, 401, 409, 419, 421,
    431, 433, 439, 443, 449, 457, 461, 463, 467, 479, 487, 491, 499, 503, 509, 521, 523, 541, 547,
    557, 563, 569, 571, 577, 587, 593, 599, 601, 607, 613, 617, 619, 631, 641, 643, 647, 653, 659,
    661, 673, 677, 683, 691, 701, 709, 719, 727, 733, 739, 743, 751, 757, 761, 769, 773, 787, 797,
    809, 811, 821, 823, 827, 829, 839, 853, 857, 859, 863, 877, 881, 883, 887, 907, 911, 919, 929,
    937, 941, 947, 953, 967, 971, 977, 983, 991, 997,
];

/// The value of a Jacobi symbol `(a/n)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Jacobi {
    /// `(a/n) = 0`: `gcd(a, n) != 1`.
    Zero,
    /// `(a/n) = +1`.
    One,
    /// `(a/n) = -1`.
    MinusOne,
}

/// Computes the Jacobi symbol `(a/n)` for odd positive `n`.
///
/// # Panics
///
/// Panics if `n` is even or zero.
#[must_use]
pub fn jacobi(a: &Nat, n: &Nat) -> Jacobi {
    assert!(n.is_odd() && !n.is_zero(), "Jacobi symbol needs odd n > 0");
    let mut a = a.rem_nat(n);
    let mut n = n.clone();
    let mut sign = 1i32;
    while !a.is_zero() {
        let tz = a.trailing_zeros().expect("a nonzero");
        if tz % 2 == 1 {
            // (2/n) = -1 iff n ≡ 3, 5 (mod 8)
            let n_mod_8 = n.limbs().first().copied().unwrap_or(0) & 7;
            if n_mod_8 == 3 || n_mod_8 == 5 {
                sign = -sign;
            }
        }
        a = a.shr_bits(tz);
        // Quadratic reciprocity flip: both ≡ 3 (mod 4) flips the sign.
        let a_mod_4 = a.limbs().first().copied().unwrap_or(0) & 3;
        let n_mod_4 = n.limbs().first().copied().unwrap_or(0) & 3;
        if a_mod_4 == 3 && n_mod_4 == 3 {
            sign = -sign;
        }
        core::mem::swap(&mut a, &mut n);
        a = a.rem_nat(&n);
    }
    if n.is_one() {
        if sign == 1 {
            Jacobi::One
        } else {
            Jacobi::MinusOne
        }
    } else {
        Jacobi::Zero
    }
}

/// Miller–Rabin probabilistic primality test with `MR_ROUNDS` (40) random bases.
#[must_use]
pub fn is_probable_prime(n: &Nat, rng: &mut dyn RngCore) -> bool {
    if n < &Nat::two() {
        return false;
    }
    for &p in SMALL_PRIMES {
        let p_nat = Nat::from(p);
        if n == &p_nat {
            return true;
        }
        if n.rem_nat(&p_nat).is_zero() {
            return false;
        }
    }
    // Write n-1 = d * 2^s with d odd.
    let n_minus_1 = n - &Nat::one();
    let s = n_minus_1.trailing_zeros().expect("n > 2 so n-1 > 0");
    let d = n_minus_1.shr_bits(s);

    'witness: for _ in 0..MR_ROUNDS {
        // a in [2, n-2]
        let a = &random_below(rng, &(n - &Nat::from(3u64))) + &Nat::two();
        let mut x = a.modpow(&d, n);
        if x.is_one() || x == n_minus_1 {
            continue 'witness;
        }
        for _ in 0..s.saturating_sub(1) {
            x = x.square().rem_nat(n);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generates a random probable prime with exactly `bits` bits.
///
/// # Panics
///
/// Panics if `bits < 2`.
#[must_use]
pub fn random_prime(rng: &mut dyn RngCore, bits: usize) -> Nat {
    assert!(bits >= 2, "primes need at least 2 bits");
    loop {
        let mut candidate = random_nat_exact(rng, bits);
        candidate.set_bit(0, true); // force odd
        if is_probable_prime(&candidate, rng) {
            return candidate;
        }
    }
}

/// The smallest probable prime `>= n`.
#[must_use]
pub fn next_prime(n: &Nat, rng: &mut dyn RngCore) -> Nat {
    let mut candidate = n.clone();
    if candidate < Nat::two() {
        return Nat::two();
    }
    if candidate.is_even() {
        candidate = &candidate + &Nat::one();
    }
    loop {
        if is_probable_prime(&candidate, rng) {
            return candidate;
        }
        candidate = &candidate + &Nat::two();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn known_primes_pass() {
        let mut r = rng();
        for p in [2u64, 3, 5, 997, 65_537, 2_147_483_647] {
            assert!(is_probable_prime(&Nat::from(p), &mut r), "{p} is prime");
        }
        // Mersenne prime 2^127 - 1
        let m127 = &Nat::one().shl_bits(127) - &Nat::one();
        assert!(is_probable_prime(&m127, &mut r));
    }

    #[test]
    fn known_composites_fail() {
        let mut r = rng();
        for c in [0u64, 1, 4, 100, 65_536, 561, 1105, 6601] {
            // 561, 1105, 6601 are Carmichael numbers.
            assert!(
                !is_probable_prime(&Nat::from(c), &mut r),
                "{c} is composite"
            );
        }
        // 2^128 + 1 is composite (59649589127497217 divides it).
        let f = &Nat::one().shl_bits(128) + &Nat::one();
        assert!(!is_probable_prime(&f, &mut r));
    }

    #[test]
    fn random_prime_has_requested_size() {
        let mut r = rng();
        for bits in [8usize, 32, 64, 96] {
            let p = random_prime(&mut r, bits);
            assert_eq!(p.bit_len(), bits);
            assert!(is_probable_prime(&p, &mut r));
        }
    }

    #[test]
    fn next_prime_steps_forward() {
        let mut r = rng();
        assert_eq!(next_prime(&Nat::from(0u64), &mut r), Nat::two());
        assert_eq!(next_prime(&Nat::from(14u64), &mut r), Nat::from(17u64));
        assert_eq!(next_prime(&Nat::from(17u64), &mut r), Nat::from(17u64));
        assert_eq!(next_prime(&Nat::from(90u64), &mut r), Nat::from(97u64));
    }

    #[test]
    fn jacobi_against_legendre_for_prime_modulus() {
        // For prime p, (a/p) = a^((p-1)/2) mod p.
        let p = Nat::from(1_000_003u64);
        let exp = (&p - &Nat::one()).shr_bits(1);
        let mut checked = 0;
        for a in 1u64..60 {
            let a_nat = Nat::from(a);
            let legendre = a_nat.modpow(&exp, &p);
            let expect = if legendre.is_one() {
                Jacobi::One
            } else if legendre.is_zero() {
                Jacobi::Zero
            } else {
                Jacobi::MinusOne
            };
            assert_eq!(jacobi(&a_nat, &p), expect, "a = {a}");
            checked += 1;
        }
        assert_eq!(checked, 59);
    }

    #[test]
    fn jacobi_composite_modulus_known_values() {
        // (2/15) = 1, (7/15) = -1, (5/15) = 0 — classic table values.
        let n = Nat::from(15u64);
        assert_eq!(jacobi(&Nat::two(), &n), Jacobi::One);
        assert_eq!(jacobi(&Nat::from(7u64), &n), Jacobi::MinusOne);
        assert_eq!(jacobi(&Nat::from(5u64), &n), Jacobi::Zero);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn jacobi_even_modulus_panics() {
        let _ = jacobi(&Nat::from(3u64), &Nat::from(10u64));
    }

    #[test]
    fn jacobi_multiplicativity_in_numerator() {
        let n = Nat::from(9907u64); // prime
        let combine = |a: Jacobi, b: Jacobi| match (a, b) {
            (Jacobi::Zero, _) | (_, Jacobi::Zero) => Jacobi::Zero,
            (x, y) if x == y => Jacobi::One,
            _ => Jacobi::MinusOne,
        };
        for (a, b) in [(2u64, 3u64), (5, 7), (10, 13), (100, 9)] {
            let prod = Nat::from(a) * Nat::from(b);
            assert_eq!(
                jacobi(&prod, &n),
                combine(jacobi(&Nat::from(a), &n), jacobi(&Nat::from(b), &n))
            );
        }
    }
}
