//! Modular arithmetic: exponentiation, GCD, extended GCD, inverses.

use crate::{Int, Nat, Sign};

impl Nat {
    /// Modular addition `(self + b) mod m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    #[must_use]
    pub fn addm(&self, b: &Nat, m: &Nat) -> Nat {
        (self + b).rem_nat(m)
    }

    /// Modular subtraction `(self - b) mod m` (wraps like `rem_euclid`).
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    #[must_use]
    pub fn subm(&self, b: &Nat, m: &Nat) -> Nat {
        let a = self.rem_nat(m);
        let b = b.rem_nat(m);
        if a >= b {
            &a - &b
        } else {
            &(m - &b) + &a
        }
    }

    /// Modular multiplication `(self * b) mod m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    #[must_use]
    pub fn mulm(&self, b: &Nat, m: &Nat) -> Nat {
        (self * b).rem_nat(m)
    }

    /// Modular exponentiation `self^exp mod m`.
    ///
    /// Odd moduli (every RSA modulus, every odd prime) are routed through
    /// the precomputed [`crate::MontgomeryContext`], which replaces the
    /// full-width division after every square with a word-by-word CIOS
    /// reduction. Even moduli fall back to `Nat::modpow_plain`. Both
    /// paths use sliding-window exponentiation with odd-power tables.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero. `x^0 mod 1 == 0` (every residue mod 1 is 0).
    #[must_use]
    pub fn modpow(&self, exp: &Nat, m: &Nat) -> Nat {
        assert!(!m.is_zero(), "modpow modulus must be nonzero");
        if m.is_one() {
            return Nat::zero();
        }
        if let Some(ctx) = crate::MontgomeryContext::new(m) {
            return ctx.modpow(self, exp);
        }
        self.modpow_plain(exp, m)
    }

    /// Modular exponentiation by sliding-window square-and-multiply with a
    /// generic `rem_nat` reduction after every step. This is the reference
    /// path (any modulus, including even ones); [`Nat::modpow`] dispatches
    /// odd moduli to the Montgomery fast path instead.
    ///
    /// The window table holds only the **odd** powers `base^1, base^3, …`
    /// — a small exponent like `e = 65537` costs one squaring and one
    /// table entry instead of a full 16-entry table.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    #[must_use]
    pub(crate) fn modpow_plain(&self, exp: &Nat, m: &Nat) -> Nat {
        assert!(!m.is_zero(), "modpow modulus must be nonzero");
        if m.is_one() {
            return Nat::zero();
        }
        if exp.is_zero() {
            return Nat::one();
        }
        let base = self.rem_nat(m);
        if base.is_zero() {
            return Nat::zero();
        }
        let w = window_bits(exp.bit_len());
        // Odd powers base^1, base^3, …, base^(2^w - 1).
        let b2 = base.square().rem_nat(m);
        let mut table = Vec::with_capacity(1 << (w - 1));
        table.push(base);
        for i in 1..(1usize << (w - 1)) {
            let prev: &Nat = &table[i - 1];
            table.push(prev.mulm(&b2, m));
        }
        let mut acc = Nat::one();
        let mut started = false;
        let mut i = exp.bit_len() as isize - 1;
        while i >= 0 {
            if !exp.bit(i as usize) {
                if started {
                    acc = acc.square().rem_nat(m);
                }
                i -= 1;
                continue;
            }
            let mut l = (i - w as isize + 1).max(0);
            while !exp.bit(l as usize) {
                l += 1;
            }
            let width = (i - l + 1) as usize;
            if started {
                for _ in 0..width {
                    acc = acc.square().rem_nat(m);
                }
            }
            let mut val = 0usize;
            for j in (l..=i).rev() {
                val = (val << 1) | usize::from(exp.bit(j as usize));
            }
            acc = if started {
                acc.mulm(&table[val >> 1], m)
            } else {
                table[val >> 1].clone()
            };
            started = true;
            i = l - 1;
        }
        acc
    }

    /// Greatest common divisor (binary GCD): the reference the
    /// extended-Euclid tests compare `ext_gcd` against.
    #[cfg(test)]
    pub(crate) fn gcd(&self, other: &Nat) -> Nat {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let shift = a
            .trailing_zeros()
            .expect("nonzero")
            .min(b.trailing_zeros().expect("nonzero"));
        a = a.shr_bits(a.trailing_zeros().expect("nonzero"));
        loop {
            b = b.shr_bits(b.trailing_zeros().expect("nonzero"));
            if a > b {
                core::mem::swap(&mut a, &mut b);
            }
            b = &b - &a;
            if b.is_zero() {
                return a.shl_bits(shift);
            }
        }
    }

    /// Extended GCD: returns `(g, x, y)` with `x*self + y*other == g`.
    #[must_use]
    pub fn ext_gcd(&self, other: &Nat) -> (Nat, Int, Int) {
        let mut r0 = Int::from_nat(self.clone());
        let mut r1 = Int::from_nat(other.clone());
        let mut s0 = Int::one();
        let mut s1 = Int::zero();
        let mut t0 = Int::zero();
        let mut t1 = Int::one();
        while !r1.is_zero() {
            let q = divide_ints(&r0, &r1);
            let r2 = &r0 - &(&q * &r1);
            let s2 = &s0 - &(&q * &s1);
            let t2 = &t0 - &(&q * &t1);
            r0 = r1;
            r1 = r2;
            s0 = s1;
            s1 = s2;
            t0 = t1;
            t1 = t2;
        }
        let g = r0.to_nat().expect("gcd of naturals is non-negative");
        (g, s0, t0)
    }

    /// Modular inverse `self^-1 mod m`, or `None` if `gcd(self, m) != 1`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    #[must_use]
    pub fn modinv(&self, m: &Nat) -> Option<Nat> {
        assert!(!m.is_zero(), "modinv modulus must be nonzero");
        if m.is_one() {
            return Some(Nat::zero());
        }
        let (g, x, _) = self.rem_nat(m).ext_gcd(m);
        if g.is_one() {
            Some(x.rem_euclid(m))
        } else {
            None
        }
    }

    /// Integer square root (floor).
    #[must_use]
    pub fn isqrt(&self) -> Nat {
        if self.is_zero() {
            return Nat::zero();
        }
        // Newton's method with a power-of-two starting point.
        let mut x = Nat::one().shl_bits(self.bit_len().div_ceil(2));
        loop {
            // y = (x + self/x) / 2
            let y = (&x + &self.div_rem(&x).0).shr_bits(1);
            if y >= x {
                return x;
            }
            x = y;
        }
    }
}

/// Truncated quotient of two `Int`s (sign-aware), used by the extended GCD
/// where operands start non-negative so truncation matches Euclid.
fn divide_ints(a: &Int, b: &Int) -> Int {
    let q = a.magnitude().div_rem(b.magnitude()).0;
    let sign = if a.sign() == b.sign() {
        Sign::Plus
    } else {
        Sign::Minus
    };
    Int::with_sign(sign, q)
}

/// Sliding-window width for an exponent of `bits` bits: wider windows
/// amortize more squarings per multiply but cost `2^(w-1)` table entries,
/// so short exponents get narrow windows.
pub(crate) fn window_bits(bits: usize) -> usize {
    match bits {
        0..=7 => 1,
        8..=35 => 2,
        36..=127 => 3,
        128..=767 => 4,
        _ => 5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nat(v: u128) -> Nat {
        Nat::from(v)
    }

    #[test]
    fn modpow_small_cases() {
        assert_eq!(nat(2).modpow(&nat(10), &nat(1000)), nat(24));
        assert_eq!(nat(3).modpow(&nat(0), &nat(7)), Nat::one());
        assert_eq!(nat(0).modpow(&nat(5), &nat(7)), Nat::zero());
        assert_eq!(nat(5).modpow(&nat(5), &Nat::one()), Nat::zero());
    }

    #[test]
    fn modpow_fermat_little_theorem() {
        // p prime => a^(p-1) = 1 mod p
        let p = nat(1_000_000_007);
        for a in [2u128, 3, 65_537, 999_999_999] {
            assert_eq!(nat(a).modpow(&(&p - &Nat::one()), &p), Nat::one());
        }
    }

    #[test]
    fn modpow_large_modulus() {
        // 2^128-159 is prime; check Fermat.
        let p: Nat = "340282366920938463463374607431768211297"
            .parse()
            .expect("p");
        let a = nat(0xDEADBEEF);
        assert_eq!(a.modpow(&(&p - &Nat::one()), &p), Nat::one());
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(nat(12).gcd(&nat(18)), nat(6));
        assert_eq!(nat(0).gcd(&nat(5)), nat(5));
        assert_eq!(nat(5).gcd(&nat(0)), nat(5));
        assert_eq!(nat(17).gcd(&nat(31)), Nat::one());
        assert_eq!(nat(1 << 20).gcd(&nat(1 << 13)), nat(1 << 13));
    }

    #[test]
    fn ext_gcd_bezout_identity() {
        let cases = [
            (240u128, 46u128),
            (17, 31),
            (1_000_000_007, 998_244_353),
            (12, 18),
        ];
        for (a, b) in cases {
            let (g, x, y) = nat(a).ext_gcd(&nat(b));
            assert_eq!(g, nat(a).gcd(&nat(b)));
            let lhs = &(&x * &Int::from_nat(nat(a))) + &(&y * &Int::from_nat(nat(b)));
            assert_eq!(lhs, Int::from_nat(g));
        }
    }

    #[test]
    fn modinv_round_trips() {
        let m = nat(1_000_000_007);
        for a in [2u128, 3, 65_537, 123_456_789] {
            let inv = nat(a).modinv(&m).expect("inverse exists");
            assert_eq!(nat(a).mulm(&inv, &m), Nat::one());
        }
    }

    #[test]
    fn modinv_nonexistent() {
        assert_eq!(nat(6).modinv(&nat(9)), None);
        assert_eq!(nat(0).modinv(&nat(9)), None);
    }

    #[test]
    fn subm_wraps() {
        let m = nat(10);
        assert_eq!(nat(3).subm(&nat(8), &m), nat(5));
        assert_eq!(nat(8).subm(&nat(3), &m), nat(5));
        assert_eq!(nat(3).subm(&nat(3), &m), Nat::zero());
    }

    #[test]
    fn isqrt_floor() {
        assert_eq!(nat(0).isqrt(), nat(0));
        assert_eq!(nat(1).isqrt(), nat(1));
        assert_eq!(nat(15).isqrt(), nat(3));
        assert_eq!(nat(16).isqrt(), nat(4));
        assert_eq!(nat(17).isqrt(), nat(4));
        let big = nat(u128::from(u64::MAX)) * nat(u128::from(u64::MAX));
        assert_eq!(big.isqrt(), nat(u128::from(u64::MAX)));
    }

    #[test]
    fn addm_mulm_reduce() {
        let m = nat(97);
        assert_eq!(nat(96).addm(&nat(96), &m), nat(95));
        assert_eq!(nat(96).mulm(&nat(96), &m), Nat::one());
    }
}
