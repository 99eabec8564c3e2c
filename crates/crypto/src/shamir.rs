//! Shamir secret sharing, in two flavors:
//!
//! * [`field`] — over a prime field `F_p`. Used by the BGW-style share
//!   multiplication inside Boneh–Franklin key generation (the modulus
//!   `N = pq` is reconstructed publicly from degree-2t product shares).
//! * [`integer`] — over the integers with Shoup's `Δ = n!` scaling. Used by
//!   the m-of-n threshold signature scheme (§3.3), where no party may learn
//!   `φ(N)` and hence shares cannot be reduced modulo anything.

use jaap_bigint::{random_below, Int, Nat};
use rand::RngCore;

/// Shamir sharing over a prime field.
pub mod field {
    use super::{random_below, Nat, RngCore};

    /// A share: the evaluation of the secret polynomial at `x = index + 1`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) struct FieldShare {
        /// Party index (evaluation point is `index + 1`).
        pub(crate) index: usize,
        /// Share value in `F_p`.
        pub(crate) value: Nat,
    }

    /// Splits `secret` into `n` shares with reconstruction threshold
    /// `degree + 1` over `F_p`.
    ///
    /// # Panics
    ///
    /// Panics if `secret >= p`, `n == 0`, or `degree >= n`.
    #[must_use]
    pub(crate) fn share(
        rng: &mut dyn RngCore,
        secret: &Nat,
        degree: usize,
        n: usize,
        p: &Nat,
    ) -> Vec<FieldShare> {
        assert!(secret < p, "secret must be reduced mod p");
        assert!(n > 0 && degree < n, "need degree < n shares");
        let mut coeffs = Vec::with_capacity(degree + 1);
        coeffs.push(secret.clone());
        for _ in 0..degree {
            coeffs.push(random_below(rng, p));
        }
        (0..n)
            .map(|index| {
                let x = Nat::from(index as u64 + 1);
                FieldShare {
                    index,
                    value: eval_poly(&coeffs, &x, p),
                }
            })
            .collect()
    }

    fn eval_poly(coeffs: &[Nat], x: &Nat, p: &Nat) -> Nat {
        // Horner's rule.
        let mut acc = Nat::zero();
        for c in coeffs.iter().rev() {
            acc = acc.mulm(x, p).addm(c, p);
        }
        acc
    }

    /// Interpolates the polynomial through `shares` at `x = 0`.
    ///
    /// # Panics
    ///
    /// Panics on duplicate share indices or an empty share set.
    #[must_use]
    pub(crate) fn interpolate_at_zero(shares: &[FieldShare], p: &Nat) -> Nat {
        assert!(!shares.is_empty(), "cannot interpolate zero shares");
        let mut acc = Nat::zero();
        for (j, sj) in shares.iter().enumerate() {
            let xj = Nat::from(sj.index as u64 + 1);
            let mut num = Nat::one();
            let mut den = Nat::one();
            for (k, sk) in shares.iter().enumerate() {
                if j == k {
                    continue;
                }
                assert_ne!(sj.index, sk.index, "duplicate share index");
                let xk = Nat::from(sk.index as u64 + 1);
                num = num.mulm(&xk, p); // (0 - xk) contributes sign below
                den = den.mulm(&xk.subm(&xj, p), p); // (xk - xj)
            }
            // λ_j = Π xk / Π (xk - xj): the (-1)^(m-1) signs of numerator and
            // denominator cancel when written this way.
            let lagrange = num.mulm(&den.modinv(p).expect("distinct points"), p);
            acc = acc.addm(&sj.value.mulm(&lagrange, p), p);
        }
        acc
    }
}

/// Shamir sharing over the integers with `Δ = n!` scaling (Shoup).
pub mod integer {
    use super::{Int, Nat, RngCore};
    use jaap_bigint::random_nat;

    /// An integer share: evaluation of `f` at `x = index + 1` where
    /// `f(0) = Δ · secret`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) struct IntShare {
        /// Party index (evaluation point is `index + 1`).
        pub(crate) index: usize,
        /// Share value (a possibly negative integer).
        pub(crate) value: Int,
    }

    /// `Δ = n!`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 20` (the factorial would not matter for any realistic
    /// coalition and keeps exponent sizes sane).
    #[must_use]
    pub(crate) fn delta(n: usize) -> Nat {
        assert!(n <= 20, "coalition size capped at 20 for Δ = n!");
        let mut acc = Nat::one();
        for i in 2..=n as u64 {
            acc = acc.mul_u64(i);
        }
        acc
    }

    /// Shares `secret` m-of-n over the integers: `f(0) = Δ·secret`, random
    /// coefficients bounded by `Δ² · coeff_bound`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`, `m > n`, or `n == 0`.
    #[must_use]
    pub(crate) fn share(
        rng: &mut dyn RngCore,
        secret: &Int,
        m: usize,
        n: usize,
        coeff_bound_bits: usize,
    ) -> Vec<IntShare> {
        assert!(m >= 1 && m <= n && n >= 1, "need 1 <= m <= n");
        let d = delta(n);
        let mut coeffs: Vec<Int> = Vec::with_capacity(m);
        coeffs.push(Int::from_nat(&d * secret.magnitude()));
        if secret.is_negative() {
            coeffs[0] = -&coeffs[0];
        }
        for _ in 1..m {
            coeffs.push(Int::from_nat(random_nat(rng, coeff_bound_bits)));
        }
        (0..n)
            .map(|index| {
                let x = Int::from(index as i64 + 1);
                let mut acc = Int::zero();
                for c in coeffs.iter().rev() {
                    acc = &(&acc * &x) + c;
                }
                IntShare { index, value: acc }
            })
            .collect()
    }

    /// The integer `Δ · λ^S_{0,j}` for the share with party index `j` within
    /// subset `S` (indices). Always an integer by the classic `n!` argument.
    ///
    /// # Panics
    ///
    /// Panics if `j` is not in `subset` or the division is inexact (which
    /// would indicate corrupted indices).
    #[must_use]
    pub(crate) fn lagrange_delta(subset: &[usize], j: usize, n: usize) -> Int {
        assert!(subset.contains(&j), "j must be in the subset");
        let mut num = Int::from_nat(delta(n));
        let mut den = Int::one();
        let xj = j as i64 + 1;
        for &k in subset {
            if k == j {
                continue;
            }
            let xk = k as i64 + 1;
            num = &num * &Int::from(-xk);
            den = &den * &Int::from(xj - xk);
        }
        let (q, r) = num.div_rem_euclid(den.magnitude());
        assert!(r.is_zero(), "Δ·λ must be an integer");
        if den.is_negative() {
            -q
        } else {
            q
        }
    }

    /// Reconstructs `Δ² · secret` from any `m` shares out of the original
    /// `n`-share split.
    ///
    /// # Panics
    ///
    /// Panics on duplicate indices.
    #[must_use]
    pub(crate) fn reconstruct_delta2_secret(shares: &[IntShare], n: usize) -> Int {
        let subset: Vec<usize> = shares.iter().map(|s| s.index).collect();
        let mut acc = Int::zero();
        for s in shares {
            let coeff = lagrange_delta(&subset, s.index, n);
            acc = &acc + &(&coeff * &s.value);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    mod field_tests {
        use super::super::field::*;
        use super::*;

        fn p() -> Nat {
            Nat::from(1_000_000_007u64)
        }

        /// Pointwise product of two share vectors (each party multiplies its own
        /// shares). The result encodes the product polynomial of doubled degree.
        fn pointwise_mul(a: &[FieldShare], b: &[FieldShare], p: &Nat) -> Vec<FieldShare> {
            a.iter()
                .zip(b)
                .map(|(sa, sb)| {
                    assert_eq!(sa.index, sb.index, "mismatched share vectors");
                    FieldShare {
                        index: sa.index,
                        value: sa.value.mulm(&sb.value, p),
                    }
                })
                .collect()
        }

        /// Pointwise sum of share vectors: shares of the sum of the secrets.
        fn pointwise_add(a: &[FieldShare], b: &[FieldShare], p: &Nat) -> Vec<FieldShare> {
            a.iter()
                .zip(b)
                .map(|(sa, sb)| {
                    assert_eq!(sa.index, sb.index, "mismatched share vectors");
                    FieldShare {
                        index: sa.index,
                        value: sa.value.addm(&sb.value, p),
                    }
                })
                .collect()
        }

        #[test]
        fn share_and_reconstruct() {
            let secret = Nat::from(123_456u64);
            let shares = share(&mut rng(), &secret, 2, 5, &p());
            assert_eq!(shares.len(), 5);
            assert_eq!(interpolate_at_zero(&shares[..3], &p()), secret);
            assert_eq!(interpolate_at_zero(&shares[1..4], &p()), secret);
            assert_eq!(interpolate_at_zero(&shares, &p()), secret);
        }

        #[test]
        fn too_few_shares_give_wrong_secret() {
            let secret = Nat::from(777u64);
            let shares = share(&mut rng(), &secret, 2, 5, &p());
            // Degree-2 polynomial from 2 points: almost surely wrong.
            assert_ne!(interpolate_at_zero(&shares[..2], &p()), secret);
        }

        #[test]
        fn degree_zero_is_replication() {
            let secret = Nat::from(42u64);
            let shares = share(&mut rng(), &secret, 0, 3, &p());
            for s in &shares {
                assert_eq!(s.value, secret);
            }
        }

        #[test]
        fn additive_homomorphism() {
            let mut r = rng();
            let a = Nat::from(100u64);
            let b = Nat::from(233u64);
            let sa = share(&mut r, &a, 1, 3, &p());
            let sb = share(&mut r, &b, 1, 3, &p());
            let sum_shares = pointwise_add(&sa, &sb, &p());
            assert_eq!(interpolate_at_zero(&sum_shares[..2], &p()), &a + &b);
        }

        #[test]
        fn multiplicative_homomorphism_with_degree_doubling() {
            // Degree t shares, pointwise multiply -> degree 2t; with
            // n >= 2t+1 shares the product reconstructs.
            let mut r = rng();
            let a = Nat::from(65_537u64);
            let b = Nat::from(99_991u64);
            let sa = share(&mut r, &a, 1, 3, &p());
            let sb = share(&mut r, &b, 1, 3, &p());
            let prod = pointwise_mul(&sa, &sb, &p());
            assert_eq!(interpolate_at_zero(&prod, &p()), (&a * &b).rem_nat(&p()));
        }

        #[test]
        #[should_panic(expected = "reduced mod p")]
        fn oversized_secret_panics() {
            let _ = share(&mut rng(), &(&p() + &Nat::one()), 1, 3, &p());
        }

        #[test]
        #[should_panic(expected = "duplicate share index")]
        fn duplicate_indices_panic() {
            let secret = Nat::from(5u64);
            let shares = share(&mut rng(), &secret, 1, 3, &p());
            let dup = vec![shares[0].clone(), shares[0].clone()];
            let _ = interpolate_at_zero(&dup, &p());
        }
    }

    mod integer_tests {
        use super::super::integer::*;
        use super::*;

        #[test]
        fn delta_factorials() {
            assert_eq!(delta(1), Nat::one());
            assert_eq!(delta(3), Nat::from(6u64));
            assert_eq!(delta(5), Nat::from(120u64));
        }

        #[test]
        fn lagrange_delta_is_exact_for_all_subsets_of_5() {
            // Exhaustive over 3-subsets of {0..5}: the assert inside
            // lagrange_delta proves integrality.
            let n = 5;
            for a in 0..n {
                for b in (a + 1)..n {
                    for c in (b + 1)..n {
                        let subset = [a, b, c];
                        for &j in &subset {
                            let _ = lagrange_delta(&subset, j, n);
                        }
                    }
                }
            }
        }

        #[test]
        fn reconstructs_delta2_secret_from_any_m_shares() {
            let n = 5;
            let m = 3;
            let secret = Int::from(987_654_321i64);
            let shares = share(&mut rng(), &secret, m, n, 128);
            let d = delta(n);
            let expect = &Int::from_nat(&d * &d) * &secret;
            assert_eq!(reconstruct_delta2_secret(&shares[..3], n), expect);
            assert_eq!(reconstruct_delta2_secret(&shares[2..5], n), expect);
            let picked = vec![shares[0].clone(), shares[2].clone(), shares[4].clone()];
            assert_eq!(reconstruct_delta2_secret(&picked, n), expect);
        }

        #[test]
        fn negative_secret_supported() {
            let n = 4;
            let secret = Int::from(-31337i64);
            let shares = share(&mut rng(), &secret, 2, n, 64);
            let d = delta(n);
            let expect = &Int::from_nat(&d * &d) * &secret;
            assert_eq!(reconstruct_delta2_secret(&shares[1..3], n), expect);
        }

        #[test]
        fn share_sums_are_shares_of_sums() {
            // Additive homomorphism underpins the dealer-free conversion.
            let n = 4;
            let m = 2;
            let s1 = Int::from(1000i64);
            let s2 = Int::from(-400i64);
            let mut r = rng();
            let sh1 = share(&mut r, &s1, m, n, 64);
            let sh2 = share(&mut r, &s2, m, n, 64);
            let combined: Vec<IntShare> = sh1
                .iter()
                .zip(&sh2)
                .map(|(a, b)| IntShare {
                    index: a.index,
                    value: &a.value + &b.value,
                })
                .collect();
            let d = delta(n);
            let expect = &Int::from_nat(&d * &d) * &(&s1 + &s2);
            assert_eq!(reconstruct_delta2_secret(&combined[..2], n), expect);
        }

        #[test]
        #[should_panic(expected = "1 <= m <= n")]
        fn zero_threshold_panics() {
            let _ = share(&mut rng(), &Int::one(), 0, 3, 64);
        }
    }
}
