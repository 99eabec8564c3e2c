//! Division: short division for single-limb divisors, Knuth Algorithm D
//! (TAOCP vol. 2, 4.3.1) for the general case.

use crate::Nat;

const BASE: u128 = 1 << 64;

impl Nat {
    /// Computes `(self / divisor, self % divisor)`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero; use [`Nat::checked_div_rem`] to handle
    /// that case.
    #[must_use]
    pub(crate) fn div_rem(&self, divisor: &Nat) -> (Nat, Nat) {
        self.checked_div_rem(divisor).expect("Nat division by zero")
    }

    /// Computes `(self / divisor, self % divisor)`, or `None` if `divisor`
    /// is zero.
    #[must_use]
    pub(crate) fn checked_div_rem(&self, divisor: &Nat) -> Option<(Nat, Nat)> {
        if divisor.is_zero() {
            return None;
        }
        if self < divisor {
            return Some((Nat::zero(), self.clone()));
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_u64(divisor.limbs[0]);
            return Some((q, Nat::from(r)));
        }
        Some(knuth_d(self, divisor))
    }

    /// Divides by a single limb, returning `(quotient, remainder)`.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    #[must_use]
    pub fn div_rem_u64(&self, d: u64) -> (Nat, u64) {
        assert!(d != 0, "Nat division by zero");
        let mut out = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | u128::from(self.limbs[i]);
            out[i] = (cur / u128::from(d)) as u64;
            rem = cur % u128::from(d);
        }
        (Nat::from_limbs(out), rem as u64)
    }

    /// `self mod m`, panicking if `m` is zero.
    #[must_use]
    pub fn rem_nat(&self, m: &Nat) -> Nat {
        self.div_rem(m).1
    }
}

/// Knuth Algorithm D. Preconditions: `v.limbs.len() >= 2`, `u >= v`.
fn knuth_d(u: &Nat, v: &Nat) -> (Nat, Nat) {
    let n = v.limbs.len();
    let m = u.limbs.len() - n;

    // D1: normalize so the divisor's top limb has its high bit set.
    let s = v.limbs[n - 1].leading_zeros() as usize;
    let vn = v.shl_bits(s).limbs;
    let mut un = u.shl_bits(s).limbs;
    un.resize(u.limbs.len() + 1, 0); // room for the extra top limb

    let mut q = vec![0u64; m + 1];
    let vhi = u128::from(vn[n - 1]);
    let vlo = u128::from(vn[n - 2]);

    // D2-D7: main loop.
    for j in (0..=m).rev() {
        // D3: estimate qhat.
        let numhi = (u128::from(un[j + n]) << 64) | u128::from(un[j + n - 1]);
        let mut qhat = numhi / vhi;
        let mut rhat = numhi % vhi;
        loop {
            if qhat >= BASE || qhat * vlo > (rhat << 64) + u128::from(un[j + n - 2]) {
                qhat -= 1;
                rhat += vhi;
                if rhat < BASE {
                    continue;
                }
            }
            break;
        }

        // D4: multiply and subtract.
        let mut carry = 0u128;
        let mut borrow = 0i128;
        for i in 0..n {
            let p = qhat * u128::from(vn[i]) + carry;
            carry = p >> 64;
            let t = i128::from(un[i + j]) - i128::from(p as u64) - borrow;
            un[i + j] = t as u64;
            borrow = i128::from(t < 0);
        }
        let t = i128::from(un[j + n]) - carry as i128 - borrow;
        un[j + n] = t as u64;

        // D5/D6: if we subtracted too much, add one divisor back.
        if t < 0 {
            qhat -= 1;
            let mut c = 0u128;
            for i in 0..n {
                let sum = u128::from(un[i + j]) + u128::from(vn[i]) + c;
                un[i + j] = sum as u64;
                c = sum >> 64;
            }
            un[j + n] = un[j + n].wrapping_add(c as u64);
        }
        q[j] = qhat as u64;
    }

    // D8: denormalize the remainder.
    let rem = Nat::from_limbs(un[..n].to_vec()).shr_bits(s);
    (Nat::from_limbs(q), rem)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nat(v: u128) -> Nat {
        Nat::from(v)
    }

    #[test]
    fn division_identities() {
        let a = nat(1_000_000_007);
        assert_eq!(a.div_rem(&a), (Nat::one(), Nat::zero()));
        assert_eq!(a.div_rem(&Nat::one()), (a.clone(), Nat::zero()));
        assert_eq!(Nat::zero().div_rem(&a), (Nat::zero(), Nat::zero()));
    }

    #[test]
    fn smaller_dividend_yields_zero_quotient() {
        let (q, r) = nat(5).div_rem(&nat(9));
        assert!(q.is_zero());
        assert_eq!(r, nat(5));
    }

    #[test]
    fn checked_div_rem_by_zero_is_none() {
        assert!(nat(5).checked_div_rem(&Nat::zero()).is_none());
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = nat(5).div_rem(&Nat::zero());
    }

    #[test]
    fn single_limb_divisor() {
        let a = Nat::from_limbs(vec![u64::MAX, u64::MAX, 7]);
        let (q, r) = a.div_rem(&nat(1_000_003));
        assert_eq!(&q * &nat(1_000_003) + &r, a);
        assert!(r < nat(1_000_003));
    }

    #[test]
    fn multi_limb_knuth_d_identity() {
        // u = q*v + r reconstructed exactly, across several shapes.
        let cases: Vec<(Vec<u64>, Vec<u64>)> = vec![
            (vec![0, 0, 0, 1], vec![0, 1]),
            (vec![u64::MAX; 6], vec![u64::MAX, u64::MAX, 1]),
            (vec![1, 2, 3, 4, 5], vec![9, 9]),
            (vec![u64::MAX, 0, u64::MAX, 0, u64::MAX], vec![u64::MAX, 1]),
            // Triggers the rare D6 "add back" path with high probability:
            (vec![0, u64::MAX - 1, u64::MAX], vec![u64::MAX, u64::MAX]),
        ];
        for (ul, vl) in cases {
            let u = Nat::from_limbs(ul);
            let v = Nat::from_limbs(vl);
            let (q, r) = u.div_rem(&v);
            assert!(r < v, "remainder must be reduced");
            assert_eq!(&q * &v + &r, u, "u = q*v + r must hold");
        }
    }

    #[test]
    fn exact_division_has_zero_remainder() {
        let v = Nat::from_limbs(vec![12345, 67890, 13579]);
        let q_true = Nat::from_limbs(vec![u64::MAX, 42]);
        let u = &v * &q_true;
        let (q, r) = u.div_rem(&v);
        assert_eq!(q, q_true);
        assert!(r.is_zero());
    }

    #[test]
    fn rem_nat_reduces() {
        let m = Nat::from_limbs(vec![0x1234_5678, 1]);
        let a = Nat::from_limbs(vec![9, 8, 7, 6]);
        let r = a.rem_nat(&m);
        assert!(r < m);
    }
}
